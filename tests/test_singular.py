import math

from hypothesis import given, settings, strategies as st

from expwave.singular import Singularities


def _reference_distance(sing, xi):
    # the per-kind expressions of Singularities.distance, one branch each,
    # kept here as the reference for its single-dispatch form
    if sing.kind == "none":
        return math.inf
    if sing.kind in ("isolated", "half_line"):
        return min(abs(xi - p) for p in sing.points)
    if sing.kind == "lattice":
        u = xi - sing.offset
        return abs(u - sing.period * round(u / sing.period))
    u = xi - sing.offset
    n = round(u / sing.period)
    local = u - n * sing.period
    return min(abs(local - sing.half_width), abs(local + sing.half_width))


coords = st.floats(min_value=-1e12, max_value=1e12)
periods = st.floats(min_value=1e-3, max_value=1e3)
sets = st.one_of(
    st.just(Singularities.none()),
    coords.map(Singularities.isolated),
    st.lists(coords, min_size=3, max_size=3).map(
        lambda ps: Singularities.isolated(*ps)),
    st.builds(Singularities.half_line, coords, st.sampled_from((1, -1))),
    st.builds(Singularities.lattice, coords, periods),
    st.builds(lambda o, p, f: Singularities.lattice_windows(o, p, f * p),
              coords, periods, st.floats(min_value=0.01, max_value=0.49)),
)


def _ties(sing, n, k):
    # abscissae where two candidates are equally near: lattice half-steps
    # (round's ties), window centres and edges, midpoints between points
    if sing.kind in ("lattice", "lattice_windows"):
        centre = sing.offset + n * sing.period
        out = [centre, centre + 0.5 * sing.period, centre - 0.5 * sing.period]
        if sing.kind == "lattice_windows":
            out += [centre + sing.half_width, centre - sing.half_width]
        return out
    ps = sing.points
    return [0.5 * (ps[i] + ps[(i + k) % len(ps)]) for i in range(len(ps))] + list(ps)


@settings(max_examples=400)
@given(sets, st.one_of(coords, st.just(0.0), st.just(-0.0)),
       st.integers(min_value=-10**6, max_value=10**6), st.integers(0, 2))
def test_distance_matches_per_kind_reference_bit_for_bit(sing, xi, n, k):
    xs = [xi, -xi] + (_ties(sing, n, k) if sing.kind != "none" else [])
    for x in xs:
        assert sing.distance(x).hex() == _reference_distance(sing, x).hex(), (
            sing, x)
