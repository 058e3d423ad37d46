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
sums with ==.  The `poly_exp_sum` sums, the reduced Heisenberg orbit
points, the skew closed form and character phases, the `bsz_test` reports
and the series CSV of the `correlate` and `nilflow` commands were recorded
before the two phase-polynomial types and the two stored forms of the
Heisenberg orbit became one each.  The orbit forms, reduced points and nil
sums of the dyadic-g maps were recorded while the bracket term still ran
in int64 on every rational map.  The sums compared with == (GOLDEN_SUMS,
the affine runs of GOLDEN_SKEW, GOLDEN_POLY_SUMS and GOLDEN_CSV) were
re-recorded when a table-driven e(.) and numpy's pairwise reduction
replaced np.exp and np.dot in the correlators; a test holds them within a
written bound of np.exp and np.dot over the same phases.  The `bsz_test`
reports were re-recorded when its two sums moved from np.dot to numpy's
pairwise sum of the products.  GOLDEN_MULTI_BATCH, sums at cuts up to
99,999 that span several batches of the summation driver, so that two
threads start a pool, was recorded before the piece length stopped being
an option of the correlators.  The nil sums whose phases repeat with a
period P small enough for the class route of the summation driver
(GOLDEN_SUMS nil-horizontal, nil-readme-dyadic-g-121 and
nil-readme-odd-k-121, GOLDEN_MULTI_BATCH nil-central and GOLDEN_CSV
correlate-12) were re-recorded when those sums became sums over the P
residue classes of exact integer class counts, which reorders the
rounding; every frozen sum is held within a written bound of np.exp and
np.dot over the same phases.  GOLDEN_MULTI_BATCH diophantine was
re-recorded when the skew tracks began to step from the first term of each
batch window instead of each piece: a phase no longer depends on where the
checkpoints cut, and the sums after the first cut moved by at most 1.03e-12
(at 99,999), against a `table_anchor_bound` of 7.4e-9 there.  Exact
rationals are kept as `Fraction` strings and correlation sums as the repr
of each complex sum.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from mobiusflow import correlate
from mobiusflow.analytic import AnalyticSeries, e2pi, e2pi_m1
from mobiusflow.cfrac import AlphaSpec
from mobiusflow.cli import main
from mobiusflow.flows import (Character, SkewFlow, TorusPoint, UnipotentAffine, character_phase,
                              skew_orbit_closed, unipotent_phase_poly)
from mobiusflow.furstenberg import FurstenbergSystem
from mobiusflow.mobius import mobius_sieve
from mobiusflow.nilflow import (HeisenbergAffine, HeisenbergElement, NilObservable,
                                compile_poly_orbit, correlate_nil, make_automorphism)
from mobiusflow.correlate import PolyPhase, bsz_test, mobius_correlate, poly_exp_sum

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
# dyadic g: with g1 = 3/8 the three moduli of the (1, 2, 1) bracket (K, D1 D2 and D2) divide
# 2^64; with g1 = 1/8 the 1/6 of the cubic coefficient leaves a 3 in K, while D2 is 16
HEIS["readme-dyadic-g"] = (("3/8", "3/16", "5/32"),) + HEIS["readme"][1:]
HEIS["readme-odd-k"] = (("1/8", "3/16", "5/32"),) + HEIS["readme"][1:]
NIL_SUMS = {"nil-horizontal": ("readme", (1, 2, 0)), "nil-central": ("readme", (1, 2, 1))}
NIL_SUMS.update({f"nil-{name}-{p}{q}{r}": (name, (p, q, r))
                 for name in ("order4", "order3", "order6", "readme-float-g", "readme-dyadic-g",
                              "readme-odd-k")
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
# cuts past one batch of the summation driver: at threads = 2 every run below starts a pool
MULTI_CUTS = (777, 20_000, 50_001, 99_999)
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
POLY_SUMS = {"cubic-sqrt2": ((0.0, 0.0, 0.0, math.sqrt(2)), 1, 0),
             "nu3-class": ((0.25, -0.1, math.sqrt(3), math.sqrt(2)), 3, 1)}
EVALUATE_NS = (0, 1, 2, 3, 5, 7, 12, 97, 1000, 123457)
SKEW_CLOSED_NS = (0, 1, 2, 10, 1000, 12345)
SKEW_CLOSED_CHARACTERS = {"phase-11": Character(1, 1), "phase-2m3": Character(2, -3),
                          "phase-20": Character(2, 0)}
SQRT2_M1 = math.sqrt(2) - 1
BSZ_RUNS = {  # (sequence, tau, M); N = 10^4
    "rotation": (lambda n: np.exp(2j * np.pi * np.mod(np.asarray(n, dtype=np.float64)
                                                      * SQRT2_M1, 1.0)), 0.25, 4000),
    "constant": (lambda n: np.ones(np.asarray(n).shape, dtype=np.complex128), 0.2, 200),
}
CLI_CONFIG = {"type": "heisenberg", "g": ["1/3", "1/7", "2/5"],
              "dsigma": [[1, 0, 0], [1, 1, 0], ["1/2", 0, 1]], "x": ["1/5", "2/9", "3/11"]}
CLI_RUNS = {
    "correlate-121": ["correlate", "--b", "1,2,1"],
    "correlate-12": ["correlate", "--b", "1,2"],
    "nilflow-121": ["nilflow", "--observable", "1,2,1"],
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


def multi_batch_sums(name, table, threads):
    """The sums at MULTI_CUTS; `poly_exp_sum` is one call per cut."""
    if name == "affine-nu2":
        W, b, x, v = AFFINE["nu2"]
        series = mobius_correlate(UnipotentAffine(matrix=W, translation=b), x, v, table,
                                  MULTI_CUTS, threads=threads)
    elif name == "nil-central":
        T, x = _heisenberg("readme")
        series = correlate_nil(T, x, NilObservable.character(1, 2, 1), table, MULTI_CUTS,
                               threads=threads)
    elif name == "nu3-class":
        coeffs, nu, l = POLY_SUMS[name]
        return tuple(repr(poly_exp_sum(PolyPhase(coeffs, nu=nu, residue=l), table, N,
                                       threads=threads)) for N in MULTI_CUTS)
    else:
        series = mobius_correlate(skew_flow("diophantine"), SKEW_X, SKEW_B, table, MULTI_CUTS,
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
      fixed-point rotation and linear parts, stepped over windows of
      BATCH = 2^15 terms, by under 2^-48;
    - e(.) and the sums: on the golden path np.exp within 8 2^-53 per term
      and np.dot, in whatever order, within (L - 1 + P) 2^-53 N in each of
      Re and Im, with L = 8192 and P <= 125 pieces at N <= 10^6; on the
      current path `E_TERM_ERROR` = 3 2^-53 per term and `reduction_bound`
      = 2 (33 + P) 2^-53 N.  Together under 2e-12 N, less than the 2 pi N
      2^-38 left of the current path's 2^-37 for its linear parts.

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


def evaluate_outputs(name):
    T, x = _heisenberg(name)
    reps = [compile_poly_orbit(T, x, l) for l in range(T.nu)]
    return tuple(tuple(str(c) for c in reps[n % T.nu].evaluate_reduced(n).coords())
                 for n in EVALUATE_NS)


def skew_closed_outputs():
    flow = skew_flow("diophantine")
    out = {"orbit": tuple((repr(q.x1), repr(q.x2)) for q in
                          (skew_orbit_closed(flow, SKEW_X, n) for n in SKEW_CLOSED_NS))}
    for name, b in SKEW_CLOSED_CHARACTERS.items():
        out[name] = tuple(repr(character_phase(flow, SKEW_X, b, n)) for n in SKEW_CLOSED_NS)
    return out


def cli_csv(name, tmp_path):
    config, out = tmp_path / "heisenberg.json", tmp_path / f"{name}.csv"
    config.write_text(json.dumps(CLI_CONFIG))
    args = CLI_RUNS[name][:1] + ["--config", str(config)] + CLI_RUNS[name][1:]
    assert main(args + ["--checkpoints", "100,1000,10000", "--out", str(out)]) == 0
    return out.read_text()


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
 'readme-dyadic-g': {'nu': 1,
                     'nilpotent': (('0', '0', '0'), ('1', '0', '0'), ('1/2', '0', '0')),
                     'coord_polys': ((('0', '3/8'),
                                      ('0', '0', '3/16'),
                                      ('0', '11/128', '3/32', '-3/128')),)},
 'readme-odd-k': {'nu': 1,
                  'nilpotent': (('0', '0', '0'), ('1', '0', '0'), ('1/2', '0', '0')),
                  'coord_polys': ((('0', '1/8'),
                                   ('0', '1/8', '1/16'),
                                   ('0', '13/96', '3/128', '-1/384')),)},
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
GOLDEN_SUMS = {'affine': ('(-3.1293006008983797+1.968393299144429j)',
            '(-8.142449666199955-16.19975157091215j)',
            '(14.168538095594322+23.1427884051205j)'),
 'nil-horizontal': ('(-5.8408434229015835+4.650088386875169j)',
                    '(-13.956691027576001+20.417267492229016j)',
                    '(-24.396679749812897+18.366834376666745j)'),
 'nil-central': ('(-3.6294578439451115-2.8693223365651805j)',
                 '(3.3640404316350594-14.858446286822112j)',
                 '(76.45252025746143-70.6334698490772j)'),
 'nil-order3-120': ('(0.49633495756071444-5.128057594264916j)',
                    '(0.632564157917798-7.75067004056515j)',
                    '(14.53195467286701-21.825817598569174j)'),
 'nil-order3-121': ('(10.564024885633652+1.7705051437599906j)',
                    '(-21.575509904136204-6.191189762236948j)',
                    '(6.2712969165790025+0.8117915232663684j)'),
 'nil-order4-120': ('(-5.742408946760808-2.123250471709932j)',
                    '(-11.484817893521615-4.246500943419862j)',
                    '(-21.73925425869553+24.20717237259725j)'),
 'nil-order4-121': ('(0.19222332517812424-1.5268826446795494j)',
                    '(-3.7926146054188314+8.347136064563843j)',
                    '(67.51431814227139-26.53475363372045j)'),
 'nil-order6-120': ('(10.12655150761894+5.106126845066689j)',
                    '(42.84582594352317+28.7733641810786j)',
                    '(71.97105707507407+74.5837305867191j)'),
 'nil-order6-121': ('(7.549142313422222+10.269672212869324j)',
                    '(24.027353183420416+6.004372762300364j)',
                    '(-43.14312403346809-25.78680450886549j)'),
 'nil-readme-dyadic-g-120': ('(3-2j)', '(8-10j)', '-51j'),
 'nil-readme-dyadic-g-121': ('(-3.0424117355347176-1.2020926609761466j)',
                             '(-16.705439571939976-0.1812609316249012j)',
                             '(47.01006085654935-37.894347380279214j)'),
 'nil-readme-odd-k-120': ('-5j', '(-4-14j)', '(-44-7j)'),
 'nil-readme-odd-k-121': ('(-8.36097281793879+2.123117381285121j)',
                          '(-19.53498254669959-8.380979114041818j)',
                          '(-30.77093141181557+9.973648853123361j)'),
 'nil-readme-float-g-120': ('(-5.788000743309741-0.48464156572388184j)',
                            '(-18.91074389861322+2.0632972431600676j)',
                            '(-89.66356826226149+13.078470818730747j)'),
 'nil-readme-float-g-121': ('(7.45144648365192-0.8602555954229311j)',
                            '(4.323119558370797-23.853892622182002j)',
                            '(40.47556101232284-4.973280396736467j)')}
GOLDEN_SKEW = {'c10-affine': ('(-136.5737169484572+17.84132870862199j)',
                '(632.6775944120445-36.56488574489437j)'),
 'c10-diophantine': ('(-14.69359896515762+322.18623815884456j)',
                     '(-389.17990490065915+609.3480475044291j)'),
 'c9-diophantine': ('(10.840212205938574+53.77767376613551j)',
                    '(-14.693598564831959+322.1862376775214j)',
                    '(-389.17990450033346+609.3480470231059j)'),
 'c9-lacunary': ('(-83.97699134559306+48.629009700214354j)',
                 '(106.53851790275566+332.5293318244406j)',
                 '(-706.8980094722727-1273.5471794287982j)'),
 'c9-unipotent': ('(22.954614753850237+1.4441819491742083j)',
                  '(47.90528296455702+3.0139449374070466j)',
                  '(-211.58166642679362-13.31159014021446j)')}

GOLDEN_MULTI_BATCH = {'affine-nu2': ('(-8.162056002593811-5.364081272873933j)',
                '(-12.32377090383569+52.81576636242393j)',
                '(48.95189896590349+18.65280193576445j)',
                '(-99.57552809136207+112.97151412977573j)'),
 'diophantine': ('(-5.623734270365411+0.9111849966479414j)',
                 '(76.57258136313402+14.165048662496512j)',
                 '(127.08672508401851+103.59851774887233j)',
                 '(-14.693599492261761+322.1862374326263j)'),
 'nil-central': ('(-0.28549713742700056-17.965941849503842j)',
                 '(154.6572917951982-37.365149494193716j)',
                 '(140.67388707113142+125.98826311568713j)',
                 '(261.64302607945257+45.69908997729488j)'),
 'nu3-class': ('(8.794606233765824-0.22264321116559627j)',
               '(0.5871362243227947-20.430007902016644j)',
               '(35.52975908433547-28.624357224721685j)',
               '(221.60805189979138+27.907780221542936j)')}
GOLDEN_POLY_SUMS = {'cubic-sqrt2': '(21.091973992914653-44.45011007796147j)',
 'nu3-class': '(-0.9225531090646633-39.582108715208506j)'}
GOLDEN_EVALUATE = {'order3': (('1/5', '2/9', '3/11'),
            ('1/9', '38/315', '5210/6237'),
            ('67/315', '2/15', '116066/363825'),
            ('1/5', '2/9', '19991/24255'),
            ('67/315', '2/15', '316706/363825'),
            ('1/9', '38/315', '204823/218295'),
            ('1/5', '2/9', '11609/24255'),
            ('1/9', '38/315', '105328/218295'),
            ('1/9', '38/315', '103942/218295'),
            ('1/9', '38/315', '19693/218295')),
 'order4': (('1/5', '2/9', '3/11'),
            ('1/9', '12/35', '173/231'),
            ('104/105', '16/63', '23819/24255'),
            ('5/63', '2/15', '48742/72765'),
            ('1/9', '12/35', '13963/24255'),
            ('5/63', '2/15', '36136/72765'),
            ('1/5', '2/9', '6088/8085'),
            ('1/9', '12/35', '1593/2695'),
            ('1/5', '2/9', '4667/4851'),
            ('1/9', '12/35', '6374/8085')),
 'order6': (('1/5', '2/9', '3/11'),
            ('14/45', '12/35', '4622/5775'),
            ('19/63', '143/315', '91402/218295'),
            ('19/105', '4/9', '2006/24255'),
            ('5/63', '67/315', '36292/218295'),
            ('14/45', '12/35', '6724/40425'),
            ('1/5', '2/9', '38/8085'),
            ('14/45', '12/35', '26524/40425'),
            ('22/315', '34/105', '155941/363825'),
            ('14/45', '12/35', '4533/13475')),
 'readme': (('0', '0', '0'),
            ('1/3', '1/7', '2/5'),
            ('2/3', '13/21', '272/315'),
            ('0', '3/7', '223/315'),
            ('2/3', '1/21', '4/7'),
            ('1/3', '0', '11/45'),
            ('0', '5/7', '127/315'),
            ('1/3', '6/7', '197/315'),
            ('1/3', '6/7', '5/7'),
            ('1/3', '5/7', '262/315')),
 'readme-float-g': (('0', '0', '0'),
                    ('8891907104280307/72057594037927936',
                     '5584463537939415/18014398509481984',
                     '4896313514877203/18014398509481984'),
                    ('8891907104280307/36028797018963968',
                     '53567615407795627/72057594037927936',
                     '5809476316938328845421373285026991/10384593717069655257060992658440192'),
                    ('26675721312840921/72057594037927936',
                     '21631689730185965/72057594037927936',
                     '8802699210014088885226848521220283/10384593717069655257060992658440192'),
                    ('44459535521401535/72057594037927936',
                     '28246576862867749/36028797018963968',
                     '1895430314398819498856789621191889/5192296858534827628530496329220096'),
                    ('62243349729962149/72057594037927936',
                     '54864652100478323/72057594037927936',
                     '7291148071571083494839927458086949/10384593717069655257060992658440192'),
                    ('8661322803358937/18014398509481984',
                     '31143292143192443/36028797018963968',
                     '4262166037722467678675813984467283/5192296858534827628530496329220096'),
                    ('69881454697982483/72057594037927936',
                     '11176132835282267/18014398509481984',
                     '488315996508969627666524729219135/649037107316853453566312041152512'),
                    ('3602879701896359/9007199254740992',
                     '5404319552806793/18014398509481984',
                     '2417974762343468283764311832257529/2596148429267413814265248164610048'),
                    ('42787799339684275/72057594037927936',
                     '13626090456438255/18014398509481984',
                     '80392695948877338436252199597917/324518553658426726783156020576256')),
 'readme-dyadic-g': (('0', '0', '0'),
                     ('3/8', '3/16', '5/32'),
                     ('3/4', '3/4', '23/64'),
                     ('1/8', '11/16', '5/32'),
                     ('7/8', '11/16', '17/32'),
                     ('5/8', '3/16', '17/32'),
                     ('1/2', '0', '1/32'),
                     ('3/8', '3/16', '13/32'),
                     ('0', '0', '15/16'),
                     ('3/8', '3/16', '21/32')),
 'readme-odd-k': (('0', '0', '0'),
                  ('1/8', '3/16', '5/32'),
                  ('1/4', '1/2', '11/32'),
                  ('3/8', '15/16', '35/64'),
                  ('5/8', '3/16', '15/16'),
                  ('7/8', '15/16', '13/64'),
                  ('1/2', '1/2', '0'),
                  ('1/8', '3/16', '5/32'),
                  ('0', '0', '1/4'),
                  ('1/8', '3/16', '5/32')),
 'reflection': (('1/5', '2/9', '3/11'),
                ('5/9', '12/35', '58/231'),
                ('71/105', '44/63', '11279/24255'),
                ('2/63', '86/105', '62446/72765'),
                ('32/63', '31/105', '65174/72765'),
                ('62/63', '27/35', '17134/24255'),
                ('2/35', '5/63', '304/1155'),
                ('26/63', '1/5', '3103/3465'),
                ('31/105', '20/63', '4810/4851'),
                ('53/63', '22/35', '62/24255')),
 'shear': (('1/5', '2/9', '3/11'),
           ('34/45', '23/63', '21793/31185'),
           ('143/315', '32/63', '122807/218295'),
           ('31/105', '41/63', '43726/72765'),
           ('128/315', '59/63', '34/891'),
           ('4/45', '2/9', '28261/31185'),
           ('31/105', '59/63', '7807/10395'),
           ('73/315', '5/63', '90907/218295'),
           ('283/315', '5/63', '39341/43659'),
           ('268/315', '59/63', '26611/31185'))}
GOLDEN_SKEW_CLOSED = {'orbit': (('0.37', '0.12'),
           ('0.784213562373095', '0.017557262889595082'),
           ('0.1984271247461901', '0.6855386493543384'),
           ('0.5121356237309505', '0.11656201421678136'),
           ('0.5835623730950488', '0.18063662192392682'),
           ('0.8364274958583775', '0.07368299531566458')),
 'phase-11': ('0.49',
              '0.8017708252626901',
              '0.8839657741005282',
              '0.6286976379477318',
              '0.7641989950189756',
              '0.9101104911740419'),
 'phase-2m3': ('0.38',
               '0.5157553360774048',
               '0.34023830142936573',
               '0.6745852048115566',
               '0.6252148804183175',
               '0.4518060057697615'),
 'phase-20': ('0.74',
              '0.5684271247461901',
              '0.3968542494923802',
              '0.024271247461900968',
              '0.1671247461900976',
              '0.6728549917167549')}
GOLDEN_BSZ = {'rotation': {'tau': 0.25,
              'M': 4000,
              'N': 10000,
              'prime_bound': 54,
              'prime_count': 16,
              'capped': False,
              'worst_pair': (2, 31),
              'worst_bilinear_ratio': 0.004266999048312257,
              'hypothesis_holds': True,
              'mobius_sum_ratio': 0.009779022065301875,
              'conclusion_bound': 1.1774100225154747,
              'conclusion_holds': True},
 'constant': {'tau': 0.2,
              'M': 200,
              'N': 10000,
              'prime_bound': 148,
              'prime_count': 34,
              'capped': False,
              'worst_pair': (2, 3),
              'worst_bilinear_ratio': 1.0,
              'hypothesis_holds': False,
              'mobius_sum_ratio': 0.0023,
              'conclusion_bound': 1.1347027495988895,
              'conclusion_holds': True}}
GOLDEN_CSV = {'correlate-121': 'N,re,im,abs_over_N\n'
                  '100,2.7463484790953183,2.400180123123905,0.03647368173363946\n'
                  '1000,3.6579150348296894,2.322260713635294,0.004332809391621907\n'
                  '10000,42.25468438267362,111.49697029230902,0.011923519923513946\n',
 'correlate-12': 'N,re,im,abs_over_N\n'
                 '100,-3.423083232854549,-3.1167310535600254,0.046294180281408304\n'
                 '1000,-18.090363401954864,3.1360958823745335,0.018360183697290026\n'
                 '10000,-63.2975249004278,6.619988914485955,0.006364276008901716\n',
 'nilflow-121': 'N,re,im,abs_over_N\n'
                '100,2.7463484790953183,2.400180123123905,0.03647368173363946\n'
                '1000,3.6579150348296894,2.322260713635294,0.004332809391621907\n'
                '10000,42.25468438267362,111.49697029230902,0.011923519923513946\n'}


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


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GOLDEN_MULTI_BATCH))
def test_multi_batch_sums_are_frozen(name, threads, table6):
    assert multi_batch_sums(name, table6, threads) == GOLDEN_MULTI_BATCH[name]


def test_multi_batch_cuts_span_batches():
    """The correlators' layout at MULTI_CUTS, and `poly_exp_sum`'s over the
    class mod 3 at the last cut (33,333 terms), hold two batches or more."""
    for N, cuts in ((MULTI_CUTS[-1], MULTI_CUTS), (33_333, [33_333])):
        assert len(correlate._batches(correlate._pieces(N, cuts))) >= 2


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


@pytest.mark.parametrize("name", sorted(POLY_SUMS))
def test_poly_exp_sums_are_frozen(name, table):
    coeffs, nu, l = POLY_SUMS[name]
    got = poly_exp_sum(PolyPhase(coeffs, nu=nu, residue=l), table, CHECKPOINTS[-1])
    assert repr(got) == GOLDEN_POLY_SUMS[name]


@pytest.mark.parametrize("name", sorted(HEIS))
def test_reduced_orbit_points_are_frozen(name):
    assert evaluate_outputs(name) == GOLDEN_EVALUATE[name]


def test_skew_closed_form_is_frozen():
    assert skew_closed_outputs() == GOLDEN_SKEW_CLOSED


@pytest.mark.parametrize("name", sorted(BSZ_RUNS))
def test_bsz_report_is_frozen(name, table):
    f, tau, M = BSZ_RUNS[name]
    assert bsz_test(f, tau, M, CHECKPOINTS[-1], table) == GOLDEN_BSZ[name]


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_series_csv_is_frozen(name, tmp_path):
    assert cli_csv(name, tmp_path) == GOLDEN_CSV[name]


def _reference_weighted_sums(bounds):
    """`_weighted_sums` as the sums were first recorded: np.exp(2j pi ph) and np.dot per piece.

    It takes the program's own phases from phase_chunk and the program's own
    piece layout, and appends to bounds, per checkpoint N with P pieces up to
    N and pieces of at most L terms, a bound on |S(N) - reference|:
    np.exp within 8 2^-53 and the correlator's e(.) within 3 2^-53 per term;
    np.dot in whatever order BLAS takes, within (L - 1) 2^-53 of the sum of
    the moduli per piece, and the running sum P 2^-53 N, each of Re and Im;
    and the correlator's own fixed-order reduction within 2 N (26 +
    bit_length(L) + P) 2^-53.
    """
    def weighted_sums(phase_chunk, weights, N, checkpoints, threads):
        pieces = correlate._pieces(N, checkpoints)
        running, at = 0j, {}
        for a, b in pieces:
            z = np.exp(2j * np.pi * phase_chunk(a, b - a + 1, np.empty(b - a + 1)))
            running += complex(np.dot(weights[a - 1:b].astype(np.float64), z))
            at[b] = running
        L = max(b - a + 1 for a, b in pieces)
        for c in sorted(checkpoints):
            P = sum(1 for _, b in pieces if b <= c)
            bounds.append(c * (8 + 3 + 2 * (L - 1 + P) + 2 * (26 + L.bit_length() + P)) * 2.0**-53)
        return [at[c] for c in sorted(checkpoints)]
    return weighted_sums


def _csv_sums(text):
    return tuple(complex(float(re), float(im)) for _, re, im, _ in
                 (row.split(",") for row in text.splitlines()[1:]))


REFERENCE_CASES = ([("sums", name) for name in GOLDEN_SUMS]
                   + [("multi", name) for name in sorted(GOLDEN_MULTI_BATCH)]
                   + [("skew", name) for name in ("c9-unipotent", "c10-affine")]
                   + [("poly", name) for name in sorted(GOLDEN_POLY_SUMS)]
                   + [("csv", name) for name in sorted(GOLDEN_CSV)])


@pytest.mark.parametrize("kind, name", REFERENCE_CASES)
def test_golden_sums_within_bound_of_exp_dot_reference(kind, name, table, table6, tmp_path,
                                                       monkeypatch):
    """Every frozen correlation sum against today's np.exp and np.dot over the same phases."""
    bounds = []
    reference = _reference_weighted_sums(bounds)
    monkeypatch.setattr(correlate, "_weighted_sums", reference)
    if kind == "sums":
        got, golden = correlation_sums(name, table), GOLDEN_SUMS[name]
    elif kind == "multi":
        got, golden = multi_batch_sums(name, table6, 1), GOLDEN_MULTI_BATCH[name]
    elif kind == "skew":
        got, golden = tuple(map(repr, skew_run(name, table6).sums)), GOLDEN_SKEW[name]
    elif kind == "poly":
        coeffs, nu, l = POLY_SUMS[name]
        got = (repr(poly_exp_sum(PolyPhase(coeffs, nu=nu, residue=l), table, CHECKPOINTS[-1])),)
        golden = (GOLDEN_POLY_SUMS[name],)
    else:
        got, golden = _csv_sums(cli_csv(name, tmp_path)), _csv_sums(GOLDEN_CSV[name])
    assert len(got) == len(golden) == len(bounds)
    for ref, want, bound in zip(got, golden, bounds):
        assert abs(complex(ref) - complex(want)) <= bound, (ref, want, bound)
