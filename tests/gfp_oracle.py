"""GF(p) rank of integer sparse rows: the modular cross-check of the
exact rank of a `RelationSpan`, kept apart from the trusted path."""


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) of `{col: int}` rows, p prime."""
    pivots = {}
    for row in rows:
        vec = {c: v % p for c, v in row.items() if v % p}
        while vec:
            c = min(vec)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(vec[c], p - 2, p)
                pivots[c] = {k: (v * inv) % p for k, v in vec.items()}
                break
            f = vec[c]
            new = {}
            for col in set(vec) | set(piv):
                val = (vec.get(col, 0) - f * piv.get(col, 0)) % p
                if val:
                    new[col] = val
            vec = new
    return len(pivots)
