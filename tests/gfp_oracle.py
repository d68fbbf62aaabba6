"""Cross-checks of `linalg` kept apart from the trusted path: the GF(p)
rank of integer sparse rows, against the exact rank of a `RelationSpan`,
and the primitivity of a weight system."""

from vassiliev.diagrams import is_split


def is_primitive(w) -> bool:
    """The weight system w vanishes on every split diagram of its order."""
    return all(w(d) == 0 for d in w.values if is_split(d))


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
