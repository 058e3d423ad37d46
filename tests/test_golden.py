"""Golden outputs of the exact orbit machinery, frozen and compared with ==.

The values below were recorded before the matrix helpers and the
quasi-unipotence detectors of `flows` and `nilflow` were merged into
`polyutil`; a refactor of that core must reproduce them bit for bit.
The nil sums of the nu > 1 maps and of the float-g map were recorded
before the Heisenberg phases moved to residue classes in t, and the orbit
form of the float-g map and the phase polynomials of the nu = 4 and nu = 6
affine maps before both orbit compilers became one affine recursion.
The skew-product sums of the criterion 9 and 10 workloads were recorded
while the skew phases still called one complex exp per Fourier mode per
term; they are compared within the bound of `skew_sum_bound`, the affine
sums with ==.  Exact rationals are kept as `Fraction` strings and
correlation sums as the repr of each complex sum.
"""

import math
from fractions import Fraction

import pytest

from mobiusflow.analytic import AnalyticSeries, e2pi, e2pi_m1
from mobiusflow.cfrac import AlphaSpec
from mobiusflow.flows import Character, SkewFlow, TorusPoint, UnipotentAffine, unipotent_phase_poly
from mobiusflow.furstenberg import FurstenbergSystem
from mobiusflow.mobius import mobius_sieve
from mobiusflow.nilflow import (HeisenbergAffine, HeisenbergElement, NilObservable,
                                compile_poly_orbit, correlate_nil, make_automorphism)
from mobiusflow.correlate import mobius_correlate

HEIS_G = ("1/3", "1/7", "2/5")
HEIS_X = ("1/5", "2/9", "3/11")
HEIS = {
    "readme": (HEIS_G, ((1, 0, 0), (1, 1, 0), ("1/2", 0, 1)), (0, 0, 0)),
    "shear": (HEIS_G, make_automorphism(((1, 1), (0, 1))), HEIS_X),
    "order4": (HEIS_G, make_automorphism(((0, -1), (1, 0))), HEIS_X),
    "order3": (HEIS_G, make_automorphism(((0, -1), (1, -1))), HEIS_X),
    "order6": (HEIS_G, make_automorphism(((1, -1), (1, 0))), HEIS_X),
    "reflection": (HEIS_G, make_automorphism(((0, 1), (1, 0)), e=1), HEIS_X),
}
# g is read exactly from doubles, so its coordinates have denominator 2^52
HEIS["readme-float-g"] = ((0.1234, 0.31, 0.2718),) + HEIS["readme"][1:]
NIL_SUMS = {"nil-horizontal": ("readme", (1, 2, 0)), "nil-central": ("readme", (1, 2, 1))}
NIL_SUMS.update({f"nil-{name}-{p}{q}{r}": (name, (p, q, r))
                 for name in ("order4", "order3", "order6", "readme-float-g")
                 for p, q, r in ((1, 2, 0), (1, 2, 1))})
AFFINE = {
    # the poly-phase benchmark's map, nu = 2
    "nu2": (((-1, 0, 0), (0, 1, 1), (0, 0, 1)), (0.1234, 0.31, 0.2718),
            (0.2, 0.51, 0.33), (1, 1, 2)),
    "shear3": (((1, 1, 0), (0, 1, 1), (0, 0, 1)), ("1/3", "2/7", "1/5"),
               ("1/11", "3/13", "5/17"), (2, -1, 3)),
    "order4": (((0, -1), (1, 0)), ("1/3", "2/7"), ("1/11", "3/13"), (2, -1)),
    "order6": (((1, -1), (1, 0)), ("1/5", "-3/7"), ("2/9", "5/17"), (1, 3)),
    # W^4 = I + N with N != 0
    "order4-shear": (((0, -1, 0, 0), (1, 0, 0, 0), (1, 0, 1, 1), (0, 0, 0, 1)),
                     ("1/3", "2/7", "1/5", "-1/4"), ("1/11", "3/13", "5/17", "1/2"),
                     (2, -1, 3, 1)),
}
CHECKPOINTS = (100, 1000, 10_000)
# the criterion 9 decay runs up to 1e6 and the criterion 10 thread-determinism runs
SKEW_X, SKEW_B = TorusPoint(0.37, 0.12), Character(0, 1)
UNIPOTENT = ((1, 1), (0, 1)), (0.1234, 0.0), (0.2, 0.51)
SKEW_RUNS = {
    "c9-unipotent": ("unipotent", (0, 1), (10**4, 10**5, 10**6)),
    "c9-diophantine": ("diophantine", SKEW_B, (10**4, 10**5, 10**6)),
    "c9-lacunary": ("lacunary", SKEW_B, (10**4, 10**5, 10**6)),
    "c10-diophantine": ("diophantine", SKEW_B, (10**5, 10**6)),
    "c10-affine": ("unipotent", (1, 2), (10**5, 10**6)),
}


def _strs(rows):
    return tuple(tuple(str(Fraction(e)) for e in row) for row in rows)


def _heisenberg(name):
    g, dsigma, x = HEIS[name]
    return (HeisenbergAffine(HeisenbergElement(*(Fraction(t) for t in g)),
                             tuple(tuple(Fraction(e) for e in row) for row in dsigma)),
            HeisenbergElement(*(Fraction(t) for t in x)))


def heisenberg_outputs(name):
    T, x = _heisenberg(name)
    polys = tuple(_strs(P.coeffs for P in compile_poly_orbit(T, x, l).coord_polys)
                  for l in range(T.nu))
    return {"nu": T.nu, "nilpotent": _strs(T.nilpotent), "coord_polys": polys}


def affine_outputs(name):
    W, b, x, v = AFFINE[name]
    aff = UnipotentAffine(matrix=W, translation=tuple(Fraction(t) for t in b))
    x = tuple(Fraction(t) for t in x)
    polys = tuple(tuple(str(c) for c in unipotent_phase_poly(aff, x, v, l).coeffs)
                  for l in range(aff.nu))
    return {"nu": aff.nu, "nilpotent": repr(aff.nilpotent),
            "nilpotency_order": aff.nilpotency_order, "phase_polys": polys}


def correlation_sums(name, table, threads=1):
    if name == "affine":
        W, b, x, v = AFFINE["nu2"]
        series = mobius_correlate(UnipotentAffine(matrix=W, translation=b), x, v, table,
                                  CHECKPOINTS, threads=threads)
    else:
        heis, pqr = NIL_SUMS[name]
        T, x = _heisenberg(heis)
        series = correlate_nil(T, x, NilObservable.character(*pqr), table, CHECKPOINTS,
                               threads=threads)
    return tuple(repr(s) for s in series.sums)


def skew_flow(name):
    if name == "unipotent":
        W, t, _ = UNIPOTENT
        return UnipotentAffine(matrix=W, translation=t)
    if name == "diophantine":
        return SkewFlow(1, 1, 1, AlphaSpec.sqrt2_minus_1(), AnalyticSeries.geometric(1.0))
    return FurstenbergSystem.build(1.0, 4).flow(c=0, corrected=True)


def skew_run(name, table):
    flow_name, b, cps = SKEW_RUNS[name]
    x = UNIPOTENT[2] if flow_name == "unipotent" else SKEW_X
    return mobius_correlate(skew_flow(flow_name), x, b, table, cps)


def skew_sum_bound(flow, p, b, N):
    """Bound on |S(N) - S_golden(N)| for a skew correlation with chunk 8192.

    Each term's phase carries an error from the golden path plus one from
    the current path, and |e(a) - e(b)| <= 2 pi |a - b| turns a phase error
    d into at most 2 pi N d on the sum.  With the Fourier modes m > 0 of h,
    delta_m = m alpha mod 1, coeff_m = h_hat(m) e(m x1) and
    w_m = coeff_m / (e(delta_m) - 1), the Birkhoff part of the phase is b2
    times sum_m 2 Re(coeff_m (e(n delta_m) - 1) / (e(delta_m) - 1)):

    - golden path: e(n delta) at the float phase anchor + j float(delta),
      j < 2^13 and |delta| <= 1/2, off by at most (3 j |delta| + 2) 2^-53
      < 2^-39 in phase, so each mode is off by |2 w_m| 2 pi 2^-39; its
      quadratic rotation term C(j, 2) A2 < |b2 c| 2^25 was rounded with
      A2 off by 2^-54 and twice at magnitude 2^25, together under
      |b2 c| 2^-26; the linear and constant parts are off by under 2^-37;
    - current path: each mode's e(j delta) table entry and e(u delta)
      anchor, the product with 2 w_m and the accumulation over M modes are
      off by at most |2 w_m| (2 M + 50) 2^-53, and the exact
      fixed-point rotation and linear parts by under 2^-37.

    So |S(N) - S_golden(N)| <= 2 pi N (|b2| (sum_m |2 w_m|)
    (2 pi 2^-39 + (2 M + 50) 2^-53) + |b2 c| 2^-26 + 2^-36).
    """
    x1f = Fraction(p.x1)
    w2, M = 0.0, 0
    for m, c in flow.h.items():
        delta = flow.alpha.frac_signed_fraction(m) if m > 0 else 0
        if delta != 0:
            w2 += 2.0 * abs(c * e2pi(m * x1f) / e2pi_m1(delta))
            M += 1
    per_term = (abs(b.b2) * w2 * (2 * math.pi * 2.0**-39 + (2 * M + 50) * 2.0**-53)
                + abs(b.b2 * flow.c) * 2.0**-26 + 2.0**-36)
    return 2 * math.pi * N * per_term


GOLDEN_HEISENBERG = {'order3': {'nu': 3,
            'nilpotent': (('0', '0', '0'), ('0', '0', '0'), ('0', '0', '0')),
            'coord_polys': ((('1/5',), ('2/9',), ('3/11', '3421/6615')),
                            (('1/9',), ('38/315',), ('69457/218295', '3421/6615')),
                            (('67/315',), ('2/15',), ('11509/40425', '3421/6615')))},
 'order4': {'nu': 4,
            'nilpotent': (('0', '0', '0'), ('0', '0', '0'), ('0', '0', '0')),
            'coord_polys': ((('1/5',), ('2/9',), ('3/11', '1007/2205')),
                            (('1/9',), ('12/35',), ('7088/24255', '1007/2205')),
                            (('-1/105',), ('16/63',), ('1565/4851', '1007/2205')),
                            (('5/63',), ('2/15',), ('21814/72765', '1007/2205')))},
 'order6': {'nu': 6,
            'nilpotent': (('0', '0', '0'), ('0', '0', '0'), ('0', '0', '0')),
            'coord_polys': ((('1/5',), ('2/9',), ('3/11', '1237/2205')),
                            (('14/45',), ('12/35',), ('29027/121275', '1237/2205')),
                            (('19/63',), ('143/315',), ('9253/31185', '1237/2205')),
                            (('19/105',), ('4/9',), ('277/693', '1237/2205')),
                            (('22/315',), ('34/105',), ('156766/363825', '1237/2205')),
                            (('5/63',), ('67/315',), ('11266/31185', '1237/2205')))},
 'readme-float-g': {'nu': 1,
                    'nilpotent': (('0', '0', '0'), ('1', '0', '0'), ('1/2', '0', '0')),
                    'coord_polys': ((('0', '8891907104280307/72057594037927936'),
                                     ('0',
                                      '35783801199235013/144115188075855872',
                                      '8891907104280307/144115188075855872'),
                                     ('0',
                                      '16125697868974796934781600344190799/'
                                      '62307562302417931542365955950641152',
                                      '322543196241565726147460489167361/'
                                      '20769187434139310514121985316880384',
                                      '-79066011951150594425280428014249/'
                                      '31153781151208965771182977975320576')),)},
 'readme': {'nu': 1,
            'nilpotent': (('0', '0', '0'), ('1', '0', '0'), ('1/2', '0', '0')),
            'coord_polys': ((('0', '1/3'),
                             ('0', '-1/42', '1/6'),
                             ('0', '313/945', '11/126', '-1/54')),)},
 'reflection': {'nu': 2,
                'nilpotent': (('0', '0', '0'), ('0', '0', '0'), ('-1', '1', '0')),
                'coord_polys': ((('1/5', '5/21'),
                                 ('2/9', '5/21'),
                                 ('3/11', '337/2205', '-25/882')),
                                (('20/63', '5/21'),
                                 ('11/105', '5/21'),
                                 ('39587/145530', '1/135', '-25/882')))},
 'shear': {'nu': 1,
           'nilpotent': (('0', '1', '0'), ('0', '0', '0'), ('0', '1/2', '0')),
           'coord_polys': ((('1/5', '61/126', '1/14'),
                            ('2/9', '1/7'),
                            ('3/11', '17767/39690', '-13/882', '-1/147')),)}}
GOLDEN_AFFINE = {'nu2': {'nu': 2,
         'nilpotent': '((0, 0, 0), (0, 0, 2), (0, 0, 0))',
         'nilpotency_order': 1,
         'phase_polys': (('24679725957990319/18014398509481984',
                          '37747370636768549/36028797018963968',
                          '4896313514877203/36028797018963968'),
                         ('78787773321070407/72057594037927936',
                          '37747370636768549/36028797018963968',
                          '4896313514877203/36028797018963968'))},
 'order4': {'nu': 4,
            'nilpotent': '((0, 0), (0, 0))',
            'nilpotency_order': 0,
            'phase_polys': (('-7/143',), ('-515/3003',), ('-1426/3003',), ('-1058/3003',))},
 'order4-shear': {'nu': 4,
                  'nilpotent': '((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 4), (0, 0, 0, 0))',
                  'nilpotency_order': 1,
                  'phase_polys': (('6483/4862', '643/280', '-3/8'),
                                  ('72092/51051', '643/280', '-3/8'),
                                  ('19619/14586', '643/280', '-3/8'),
                                  ('64646/51051', '643/280', '-3/8'))},
 'order6': {'nu': 6,
            'nilpotent': '((0, 0), (0, 0))',
            'nilpotency_order': 0,
            'phase_polys': (('169/153',), ('-2629/5355',), ('-131/357',), ('7243/5355',),
                            ('15787/5355',), ('5041/1785',))},
 'shear3': {'nu': 1,
            'nilpotent': '((0, 1, 0), (0, 0, 1), (0, 0, 0))',
            'nilpotency_order': 2,
            'phase_polys': (('2026/2431', '2481/3094', '333/1190', '1/15'),)}}
GOLDEN_SUMS = {'affine': ('(-3.1293006008983806+1.9683932991444304j)',
            '(-8.142449666199967-16.199751570912138j)',
            '(14.168538095594272+23.14278840512048j)'),
 'nil-horizontal': ('(-5.840843422901583+4.650088386875169j)',
                    '(-13.956691027576007+20.41726749222901j)',
                    '(-24.39667974981292+18.366834376666752j)'),
 'nil-central': ('(-3.62945784394511-2.86932233656518j)',
                 '(3.3640404316350643-14.85844628682211j)',
                 '(76.45252025746143-70.63346984907716j)'),
 'nil-order3-120': ('(0.49633495756071366-5.128057594264914j)',
                    '(0.6325641579177991-7.750670040565143j)',
                    '(14.53195467286698-21.825817598569238j)'),
 'nil-order3-121': ('(10.564024885633653+1.7705051437599901j)',
                    '(-21.575509904136194-6.191189762236938j)',
                    '(6.271296916578981+0.8117915232663755j)'),
 'nil-order4-120': ('(-5.742408946760807-2.1232504717099294j)',
                    '(-11.484817893521612-4.246500943419859j)',
                    '(-21.739254258695514+24.207172372597274j)'),
 'nil-order4-121': ('(0.19222332517812624-1.5268826446795498j)',
                    '(-3.7926146054188274+8.347136064563838j)',
                    '(67.51431814227142-26.534753633720484j)'),
 'nil-order6-120': ('(10.126551507618938+5.10612684506669j)',
                    '(42.84582594352315+28.77336418107859j)',
                    '(71.97105707507406+74.58373058671908j)'),
 'nil-order6-121': ('(7.549142313422222+10.269672212869324j)',
                    '(24.02735318342041+6.004372762300351j)',
                    '(-43.14312403346814-25.786804508865522j)'),
 'nil-readme-float-g-120': ('(-5.788000743309742-0.4846415657238815j)',
                            '(-18.91074389861322+2.0632972431600725j)',
                            '(-89.66356826226146+13.078470818730786j)'),
 'nil-readme-float-g-121': ('(7.451446483651916-0.8602555954229317j)',
                            '(4.3231195583708-23.853892622181984j)',
                            '(40.47556101232287-4.973280396736442j)')}
GOLDEN_SKEW = {'c10-affine': ('(-136.57371694845725+17.84132870862202j)',
                '(632.6775944120441-36.56488574489484j)'),
 'c10-diophantine': ('(-14.69359896515762+322.18623815884456j)',
                     '(-389.17990490065915+609.3480475044291j)'),
 'c9-diophantine': ('(10.840212205938574+53.77767376613551j)',
                    '(-14.693598564831959+322.1862376775214j)',
                    '(-389.17990450033346+609.3480470231059j)'),
 'c9-lacunary': ('(-83.97699134559306+48.629009700214354j)',
                 '(106.53851790275566+332.5293318244406j)',
                 '(-706.8980094722727-1273.5471794287982j)'),
 'c9-unipotent': ('(22.954614753850237+1.444181949174205j)',
                  '(47.90528296455704+3.0139449374070413j)',
                  '(-211.5816664267936-13.311590140214452j)')}


@pytest.mark.parametrize("name", sorted(HEIS))
def test_heisenberg_orbit_form_is_frozen(name):
    assert heisenberg_outputs(name) == GOLDEN_HEISENBERG[name]


@pytest.mark.parametrize("name", sorted(AFFINE))
def test_affine_phase_polys_are_frozen(name):
    assert affine_outputs(name) == GOLDEN_AFFINE[name]


@pytest.fixture(scope="module")
def table():
    return mobius_sieve(CHECKPOINTS[-1])


@pytest.mark.parametrize("name", ["affine", *NIL_SUMS])
def test_correlation_sums_are_frozen(name, table):
    assert correlation_sums(name, table) == GOLDEN_SUMS[name]


@pytest.mark.parametrize("name", ["affine", *NIL_SUMS])
def test_correlation_sums_are_frozen_at_two_threads(name, table):
    assert correlation_sums(name, table, threads=2) == GOLDEN_SUMS[name]


@pytest.fixture(scope="module")
def table6():
    return mobius_sieve(10**6)


@pytest.mark.parametrize("name", sorted(SKEW_RUNS))
def test_skew_workload_sums_are_frozen(name, table6):
    """The affine sums stay ==, the skew sums within `skew_sum_bound`."""
    series = skew_run(name, table6)
    golden = tuple(complex(s) for s in GOLDEN_SKEW[name])
    flow_name, b, cps = SKEW_RUNS[name]
    if flow_name == "unipotent":
        assert tuple(repr(s) for s in series.sums) == GOLDEN_SKEW[name]
        return
    flow = skew_flow(flow_name)
    for N, got, want in zip(cps, series.sums, golden):
        assert abs(got - want) <= skew_sum_bound(flow, SKEW_X, b, N), (N, got, want)
