"""Mittag-Leffler evaluation: known identities, frozen oracle values,
structural invariants, and branch consistency."""

import csv
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvoigt.errors import AccuracyError, DomainError
from fracvoigt.special import (
    MLParams,
    Z_MAX_NEG,
    Z_MAX_POS,
    _contour_nodes,
    _contour_sum,
    ml_eval,
)
from oracles import (
    _large_beta_points,
    _ml_series_mp,
    _positive_axis_points,
    large_argument_ref,
    ml_deriv_sign_probe,
    ml_one,
)

# frozen extended-precision oracle values (tests/oracles.py)
ORACLE_POINTS = [
    (0.5, 0.5, -0.5, 0.25634441145129333),
    (1.0, 0.5, -30.0, -0.009917916820618688),
    (1.0, 0.25, -30.0, -0.007340015663768211),
    (0.75, 1.75, -2.0, 0.3989607582935228),
    (0.3, 0.3, -7.0, 0.0039764876519630685),
    (0.5, 1.0, -25.0, 0.02254957243264136),
    (0.25, 1.0, -40.0, 0.02005291268277312),
    # orders beta > 1 on the contour range u = |z|^(1/alpha) in {1e-4, 3, 35},
    # plus two far orders; the contour moves with beta there instead of
    # reducing the order
    (0.01, 1.5, -0.9120108393559098, 0.5902564671562667),
    (0.01, 1.5, -1.0110466919378536, 0.5611933694442539),
    (0.01, 1.5, -1.0361930628883962, 0.5542638798747311),
    (0.01, 2.5, -0.9120108393559098, 0.3947550059263792),
    (0.01, 2.5, -1.0110466919378536, 0.3753826780611615),
    (0.01, 2.5, -1.0361930628883962, 0.37076276829114924),
    (0.01, 4.0, -0.9120108393559098, 0.08769041184636349),
    (0.01, 4.0, -1.0110466919378536, 0.0833989613049238),
    (0.01, 4.0, -1.0361930628883962, 0.08237535635270672),
    (0.01, 10.0, -0.9120108393559098, 1.45674596616136e-06),
    (0.01, 10.0, -1.0110466919378536, 1.3858102585306423e-06),
    (0.01, 10.0, -1.0361930628883962, 1.3688851662588995e-06),
    (0.01, 15.0, -0.9120108393559098, 6.075788347756483e-12),
    (0.01, 15.0, -1.0110466919378536, 5.780559063226585e-12),
    (0.01, 15.0, -1.0361930628883962, 5.710108562546664e-12),
    (0.5, 1.5, -0.01, 1.118453895365749),
    (0.5, 1.5, -1.7320508075688772, 0.4114537214222014),
    (0.5, 1.5, -5.916079783099616, 0.15313220312266937),
    (0.5, 2.5, -0.01, 0.7472827023637008),
    (0.5, 2.5, -1.7320508075688772, 0.3383751206318554),
    (0.5, 2.5, -5.916079783099616, 0.14116665197505066),
    (0.5, 4.0, -0.01, 0.16581109685084403),
    (0.5, 4.0, -1.7320508075688772, 0.08670946320876025),
    (0.5, 4.0, -5.916079783099616, 0.03952706824934531),
    (0.5, 10.0, -0.01, 2.746935438729714e-06),
    (0.5, 10.0, -1.7320508075688772, 1.7668570828882366e-06),
    (0.5, 10.0, -5.916079783099616, 9.41526189394836e-07),
    (0.5, 15.0, -0.01, 1.1440956743022928e-11),
    (0.5, 15.0, -1.7320508075688772, 7.892765906942458e-12),
    (0.5, 15.0, -5.916079783099616, 4.487166074797849e-12),
    (0.999, 1.5, -0.00010092528860766844, 1.128303195453683),
    (0.999, 1.5, -2.9967059728946346, 0.23759233391006793),
    (0.999, 1.5, -34.87578376466986, 0.016451522056806365),
    (0.999, 2.5, -0.00010092528860766844, 0.7522223768955885),
    (0.999, 2.5, -2.9967059728946346, 0.2971488994031036),
    (0.999, 2.5, -34.87578376466986, 0.03188040835982491),
    (0.999, 4.0, -0.00010092528860766844, 0.16666245519361678),
    (0.999, 4.0, -2.9967059728946346, 0.09073924160656877),
    (0.999, 4.0, -34.87578376466986, 0.013525524726716052),
    (0.999, 10.0, -0.00010092528860766844, 2.755704044867753e-06),
    (0.999, 10.0, -2.9967059728946346, 2.108192577760046e-06),
    (0.999, 10.0, -34.87578376466986, 5.748312764986078e-07),
    (0.999, 15.0, -0.00010092528860766844, 1.1470668207161655e-11),
    (0.999, 15.0, -2.9967059728946346, 9.539128168122266e-12),
    (0.999, 15.0, -34.87578376466986, 3.328457780679206e-12),
    (0.5, 60.0, -1.7320508075688772, 5.890059417391121e-81),
    (0.5, 1000000.0, -1.7320508075688772, 0.0),
    # the contour rule's far range: x = 1.1 * 36^alpha and x = 100 for the
    # model's orders beta in {alpha, 1, alpha+1, alpha+2} and beta = 10
    (0.02, 0.02, -1.1817312905429407, 0.004198222718977402),
    (0.02, 0.02, -100.0, 1.9379230986123665e-06),
    (0.02, 1.0, -1.1817312905429407, 0.45548006633941435),
    (0.02, 1.0, -100.0, 0.009785304087314385),
    (0.02, 1.02, -1.1817312905429407, 0.46078151439182813),
    (0.02, 1.02, -100.0, 0.009902146959126857),
    (0.02, 2.02, -1.1817312905429407, 0.4565766385878559),
    (0.02, 2.02, -100.0, 0.009900170291802263),
    (0.02, 10.0, -1.1817312905429407, 1.2939567611360572e-06),
    (0.02, 10.0, -100.0, 2.8527727615528928e-08),
    (0.05, 0.05, -1.315854318736447, 0.009293340238194146),
    (0.05, 0.05, -100.0, 4.755282614224688e-06),
    (0.05, 1.0, -1.315854318736447, 0.42466956762042946),
    (0.05, 1.0, -100.0, 0.009602370766950943),
    (0.05, 1.05, -1.315854318736447, 0.43722958095546116),
    (0.05, 1.05, -100.0, 0.00990397629233049),
    (0.05, 2.05, -1.315854318736447, 0.4278772543804125),
    (0.05, 2.05, -100.0, 0.009898976040431865),
    (0.05, 10.0, -1.315854318736447, 1.266564545192606e-06),
    (0.05, 10.0, -100.0, 3.0496103504586566e-08),
    (0.3, 0.3, -3.2231716567418736, 0.015349290836534685),
    (0.3, 0.3, -100.0, 2.284196721428951e-05),
    (0.3, 1.0, -3.2231716567418736, 0.1996999977651373),
    (0.3, 1.0, -100.0, 0.007658856222286642),
    (0.3, 1.3, -3.2231716567418736, 0.2482958053322676),
    (0.3, 1.3, -100.0, 0.009923411437777134),
    (0.3, 2.3, -3.2231716567418736, 0.23026612336399213),
    (0.3, 2.3, -100.0, 0.009891061893907259),
    (0.3, 10.0, -3.2231716567418736, 1.0430108153802043e-06),
    (0.3, 10.0, -100.0, 5.28694568722371e-08),
    (0.7, 0.7, -13.514638573122847, 0.0014373319111114556),
    (0.7, 0.7, -100.0, 2.377720552356958e-05),
    (0.7, 1.0, -13.514638573122847, 0.026234502903495653),
    (0.7, 1.0, -100.0, 0.003369687416305994),
    (0.7, 1.7, -13.514638573122847, 0.07205264808435753),
    (0.7, 1.7, -100.0, 0.00996630312583694),
    (0.7, 2.7, -13.514638573122847, 0.06816764998019664),
    (0.7, 2.7, -100.0, 0.009889248172042819),
    (0.7, 10.0, -13.514638573122847, 7.197312589716137e-07),
    (0.7, 10.0, -100.0, 1.242599517650026e-07),
    (0.999, 0.999, -39.458346610427334, 7.155823623626357e-07),
    (0.999, 0.999, -100.0, 1.0413970381449236e-07),
    (0.999, 1.0, -39.458346610427334, 2.6749972931893817e-05),
    (0.999, 1.0, -100.0, 1.0211830300787628e-05),
    (0.999, 1.999, -39.458346610427334, 0.02534250256098702),
    (0.999, 1.999, -100.0, 0.009999897881696992),
    (0.999, 2.999, -39.458346610427334, 0.024700567302565177),
    (0.999, 2.999, -100.0, 0.009899944377119094),
    (0.999, 10.0, -39.458346610427334, 5.197420005753621e-07),
    (0.999, 10.0, -100.0, 2.2902638839235853e-07),
    # alpha = 1 on the contour rule, near z = 0 to the cap; 1/Gamma(200)
    # underflows, so its row reads 0
    (1.0, 0.25, -0.001, 0.27471328239685905),
    (1.0, 0.25, -3.0, -0.18615741790720067),
    (1.0, 0.25, -50.0, -0.004290663973797303),
    (1.0, 0.25, -100.0, -0.002105853013916771),
    (1.0, 1.5, -0.001, 1.1276272151326074),
    (1.0, 1.5, -3.0, 0.23719834177477958),
    (1.0, 1.5, -50.0, 0.011400197031654244),
    (1.0, 1.5, -100.0, 0.0056705394232887596),
    (1.0, 2.0, -0.001, 0.9995001666250083),
    (1.0, 2.0, -3.0, 0.3167376438773787),
    (1.0, 2.0, -50.0, 0.02),
    (1.0, 2.0, -100.0, 0.01),
    (1.0, 3.0, -0.001, 0.4998333749916681),
    (1.0, 3.0, -3.0, 0.22775411870754045),
    (1.0, 3.0, -50.0, 0.0196),
    (1.0, 3.0, -100.0, 0.0099),
    (1.0, 6.9, -0.001, 0.0016734140867468387),
    (1.0, 6.9, -3.0, 0.001151208945106789),
    (1.0, 6.9, -50.0, 0.00017956264930704306),
    (1.0, 6.9, -100.0, 9.409053276789667e-05),
    (1.0, 10.0, -0.001, 2.7554563742563703e-06),
    (1.0, 10.0, -3.0, 2.108803256072698e-06),
    (1.0, 10.0, -50.0, 4.2656772602311113e-07),
    (1.0, 10.0, -100.0, 2.2948416363115874e-07),
    (1.0, 200.0, -0.001, 0.0),
    (1.0, 200.0, -3.0, 0.0),
    (1.0, 200.0, -50.0, 0.0),
    (1.0, 200.0, -100.0, 0.0),
    # the long-time range x in {150, 3e4, 1e6} down to the cap Z_MAX_NEG, for
    # the model's orders beta in {a, 1, a+1, a+2}: oracles.ml_ref for a < 1,
    # and mpmath's e^(-x) 1F1(b-1; b; x) / Gamma(b) for a = 1, where ml_ref
    # has no route past x = 140
    (0.3, 0.3, -150.0, 1.0191818807088668e-05),
    (0.3, 0.3, -30000.0, 2.567843764234525e-10),
    (0.3, 0.3, -1000000.0, 2.3111468466554486e-13),
    (0.3, 1.0, -150.0, 0.00511588274180232),
    (0.3, 1.0, -30000.0, 2.5678938550335296e-05),
    (0.3, 1.0, -1000000.0, 7.703827330424719e-07),
    (0.3, 1.3, -150.0, 0.006632560781721318),
    (0.3, 1.3, -30000.0, 3.333247736871499e-05),
    (0.3, 1.3, -1000000.0, 9.99999229617267e-07),
    (0.3, 2.3, -150.0, 0.006618085327436338),
    (0.3, 2.3, -30000.0, 3.333211054462444e-05),
    (0.3, 2.3, -1000000.0, 9.999988994537215e-07),
    (0.5, 0.5, -150.0, 1.253671055749745e-05),
    (0.5, 0.5, -30000.0, 3.134386570041335e-10),
    (0.5, 0.5, -1000000.0, 2.82094791773455e-13),
    (0.5, 1.0, -150.0, 0.003761180312247992),
    (0.5, 1.0, -30000.0, 1.8806319441143922e-05),
    (0.5, 1.0, -1000000.0, 5.641895835474742e-07),
    (0.5, 1.5, -150.0, 0.00664159213125168),
    (0.5, 1.5, -30000.0, 3.333270645601863e-05),
    (0.5, 1.5, -1000000.0, 9.999994358104165e-07),
    (0.5, 2.5, -150.0, 0.006616811663334922),
    (0.5, 2.5, -30000.0, 3.333207961573957e-05),
    (0.5, 2.5, -1000000.0, 9.99998871621833e-07),
    (0.75, 0.75, -150.0, 9.32036395433099e-06),
    (0.75, 0.75, -30000.0, 2.2986205833309323e-10),
    (0.75, 0.75, -1000000.0, 2.0686217026541844e-13),
    (0.75, 1.0, -150.0, 0.0018513841784833034),
    (0.75, 1.0, -30000.0, 9.194168875776182e-06),
    (0.75, 1.0, -1000000.0, 2.758159449252561e-07),
    (0.75, 1.75, -150.0, 0.006654324105476778),
    (0.75, 1.75, -30000.0, 3.333302686103748e-05),
    (0.75, 1.75, -1000000.0, 9.99999724184055e-07),
    (0.75, 2.75, -150.0, 0.006617800341291144),
    (0.75, 2.75, -30000.0, 3.3332107506839137e-05),
    (0.75, 2.75, -1000000.0, 9.999988967379128e-07),
    (0.9, 0.9, -150.0, 4.299663011673733e-06),
    (0.9, 0.9, -30000.0, 1.0512531926445103e-10),
    (0.9, 0.9, -1000000.0, 9.460264421896728e-14),
    (0.9, 1.0, -150.0, 0.0007086230236468581),
    (0.9, 1.0, -30000.0, 3.5039836572260428e-06),
    (0.9, 1.0, -1000000.0, 1.0511387487148291e-07),
    (0.9, 1.9, -150.0, 0.006661942513175687),
    (0.9, 1.9, -30000.0, 3.333321653387809e-05),
    (0.9, 1.9, -1000000.0, 9.99999894886125e-07),
    (0.9, 2.9, -150.0, 0.006620014475099779),
    (0.9, 2.9, -30000.0, 3.3332165411394426e-05),
    (0.9, 2.9, -1000000.0, 9.999989488632119e-07),
    (1.0, 1.0, -150.0, 7.175095973164411e-66),
    (1.0, 1.0, -30000.0, 0.0),
    (1.0, 1.0, -1000000.0, 0.0),
    (1.0, 2.0, -150.0, 0.006666666666666667),
    (1.0, 2.0, -30000.0, 3.3333333333333335e-05),
    (1.0, 2.0, -1000000.0, 1e-06),
    (1.0, 3.0, -150.0, 0.006622222222222222),
    (1.0, 3.0, -30000.0, 3.3332222222222224e-05),
    (1.0, 3.0, -1000000.0, 9.99999e-07),
    # the series' whole domain z in (5, 30] (oracles._ml_series_mp), alpha in
    # {0.3, 0.5, 0.7, 0.9, 1} and beta in {a, 1, a+1, a+2}; None where
    # E ~ exp(z^(1/a)) / a overflows float64 (z^(1/a) > 700) and ml_eval
    # raises AccuracyError
    (0.3, 0.3, 5.5, 6.228238210705077e+129),
    (0.3, 0.3, 12.0, None),
    (0.3, 0.3, 30.0, None),
    (0.3, 1.0, 5.5, 1.166412788191322e+128),
    (0.3, 1.0, 12.0, None),
    (0.3, 1.0, 30.0, None),
    (0.3, 1.3, 5.5, 2.120750523984221e+127),
    (0.3, 1.3, 12.0, None),
    (0.3, 1.3, 30.0, None),
    (0.3, 2.3, 5.5, 7.22127611825913e+124),
    (0.3, 2.3, 12.0, None),
    (0.3, 2.3, 30.0, None),
    (0.5, 0.5, 5.5, 150938754752113.97),
    (0.5, 0.5, 12.0, 8.291185576122111e+63),
    (0.5, 0.5, 30.0, None),
    (0.5, 1.0, 5.5, 27443409954929.71),
    (0.5, 1.0, 12.0, 6.909321313435092e+62),
    (0.5, 1.0, 30.0, None),
    (0.5, 1.5, 5.5, 4989710900896.129),
    (0.5, 1.5, 12.0, 5.757767761195911e+61),
    (0.5, 1.5, 30.0, None),
    (0.5, 2.5, 5.5, 164949120690.562),
    (0.5, 2.5, 12.0, 3.998449834163827e+59),
    (0.5, 2.5, 30.0, None),
    (0.7, 0.7, 5.5, 270261.8780953638),
    (0.7, 0.7, 12.0, 5427799069345534.0),
    (0.7, 0.7, 30.0, 5.731136203321275e+56),
    (0.7, 1.0, 5.5, 130162.62839026815),
    (0.7, 1.0, 12.0, 1871188388856723.5),
    (0.7, 1.0, 30.0, 1.334101165253741e+56),
    (0.7, 1.7, 5.5, 23665.750616412388),
    (0.7, 1.7, 12.0, 155932365738060.22),
    (0.7, 1.7, 30.0, 4.447003884179137e+54),
    (0.7, 2.7, 5.5, 2072.126031594562),
    (0.7, 2.7, 12.0, 4479698377559.782),
    (0.7, 2.7, 30.0, 3.4505973762138e+52),
    (0.9, 0.9, 5.5, 1034.6015832796759),
    (0.9, 0.9, 12.0, 10823484.316811003),
    (0.9, 0.9, 30.0, 1.6671884717040935e+19),
    (0.9, 1.0, 5.5, 856.0560682648555),
    (0.9, 1.0, 12.0, 8212172.520746422),
    (0.9, 1.0, 30.0, 1.1425102754824479e+19),
    (0.9, 1.9, 5.5, 155.4647396845192),
    (0.9, 1.9, 12.0, 684347.6267288687),
    (0.9, 1.9, 30.0, 3.8083675849414944e+17),
    (0.9, 2.9, 5.5, 23.198814848572322),
    (0.9, 2.9, 12.0, 43269.87439922737),
    (0.9, 2.9, 30.0, 8699474539437277.0),
    (1.0, 1.0, 5.5, 244.69193226422038),
    (1.0, 1.0, 12.0, 162754.79141900392),
    (1.0, 1.0, 30.0, 10686474581524.463),
    (1.0, 2.0, 5.5, 44.30762404804007),
    (1.0, 2.0, 12.0, 13562.81595158366),
    (1.0, 2.0, 30.0, 356215819384.1154),
    (1.0, 3.0, 5.5, 7.874113463280013),
    (1.0, 3.0, 12.0, 1130.1513292986383),
    (1.0, 3.0, 30.0, 11873860646.103848),
]


class TestKnownValues:
    def test_exp_at_one(self):
        assert ml_eval(MLParams(1.0, 1.0), 1.0) == pytest.approx(math.e, rel=1e-14)

    def test_zero_argument_is_reciprocal_gamma(self):
        assert ml_eval(MLParams(0.7, 1.3), 0.0) == pytest.approx(
            1.0 / math.gamma(1.3), rel=1e-15
        )

    def test_erfc_identity_at_minus_one(self):
        # E[1/2](z) = exp(z^2) erfc(-z)
        assert ml_one(0.5, -1.0) == pytest.approx(
            math.e * math.erfc(1.0), rel=1e-12
        )
        assert ml_one(0.5, -1.0) == pytest.approx(0.4275836, abs=5e-8)

    def test_term_shift_closed_form(self):
        # E[1,2](z) = (e^z - 1)/z
        assert ml_eval(MLParams(1.0, 2.0), 2.0) == pytest.approx(
            (math.e**2 - 1.0) / 2.0, rel=1e-13
        )

    def test_ml_one_convenience(self):
        assert ml_one(1.0, -1.0) == pytest.approx(1.0 / math.e, rel=1e-14)
        assert ml_one(1.0, 0.0) == 1.0
        assert ml_one(0.5, -4.0) == pytest.approx(
            math.exp(16.0) * math.erfc(4.0), rel=1e-11
        )

    def test_far_axis_rows_to_rounding(self):
        # the contour rule's error does not grow with x: over the 57 rows at
        # x in {150, 3e4, 1e6} the worst absolute-or-relative error is 3.0e-16
        far = [row for row in ORACLE_POINTS if row[2] <= -150.0]
        assert len(far) == 57
        worst = max(
            abs(ml_eval(MLParams(a, b), z) - v) / max(1.0, abs(v)) for a, b, z, v in far
        )
        assert worst <= 1e-15

    @pytest.mark.parametrize("alpha,beta,z,expected", ORACLE_POINTS)
    def test_frozen_oracle_values(self, alpha, beta, z, expected):
        if expected is None:
            with pytest.raises(AccuracyError):
                ml_eval(MLParams(alpha, beta), z)
            return
        got = ml_eval(MLParams(alpha, beta), z)
        assert abs(got - expected) <= 1e-11 * max(1.0, abs(expected))


def _frozen_rows(name):
    """The frozen rows of tests/data/<name>; None marks a value that
    overflows float64."""
    with open(Path(__file__).parent / "data" / name, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(float(a), float(b), float(z), None if v == "None" else float(v)) for a, b, z, v in rows]


POSITIVE_AXIS_ROWS = _frozen_rows("ml_positive_axis.csv")
LARGE_BETA_ROWS = _frozen_rows("ml_large_beta.csv")


class TestPositiveAxisOracle:
    """Seeded rows at large beta: alpha in [0.2, 1], beta log-uniform in
    [0.01, 1e3], z in (0, 30] (oracles.positive_axis_ref)."""

    def test_rows_are_the_seeded_points(self):
        assert [row[:3] for row in POSITIVE_AXIS_ROWS] == list(_positive_axis_points())

    @pytest.mark.parametrize("alpha,beta,z,expected", POSITIVE_AXIS_ROWS)
    def test_value_or_raise(self, alpha, beta, z, expected):
        if expected is None:  # a value here would be wrong
            with pytest.raises(AccuracyError):
                ml_eval(MLParams(alpha, beta), z)
            return
        got = ml_eval(MLParams(alpha, beta), z)
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))


class TestLargeBetaOracle:
    """Seeded rows at beta > 3 past x = 100: alpha in (0, 1), beta
    log-uniform in (3, 1e3], z = -x with x log-uniform in [1e2, 1e6)
    (oracles.large_argument_ref)."""

    def test_rows_are_the_seeded_points(self):
        assert [row[:3] for row in LARGE_BETA_ROWS] == list(_large_beta_points())

    def test_oracle_gives_the_frozen_values(self):
        for alpha, beta, z, expected in LARGE_BETA_ROWS[:10]:
            assert large_argument_ref(alpha, beta, -z) == expected

    @pytest.mark.parametrize("alpha,beta,z,expected", LARGE_BETA_ROWS)
    def test_frozen_values(self, alpha, beta, z, expected):
        got = ml_eval(MLParams(alpha, beta), z)
        assert abs(got - expected) <= 1e-11 * max(1.0, abs(expected))


class TestDomain:
    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.0, 1.0), (-0.5, 1.0), (1.5, 1.0), (2.0, 1.0), (2.5, 1.0), (0.5, 0.0), (0.5, -1.0)],
    )
    def test_invalid_params(self, alpha, beta):
        with pytest.raises(DomainError):
            MLParams(alpha, beta)

    @pytest.mark.parametrize("alpha", [1.0000000000000002, 1.6, 2.0])
    def test_alpha_past_one_names_the_range(self, alpha):
        # the order lies in (0, 1]: E[2,1](-x^2) = cos x and the rest of
        # 1 < alpha <= 2 are rejected before any point is evaluated
        message = rf"alpha must lie in \(0, 1\], got {alpha!r}"
        with pytest.raises(DomainError, match=message):
            MLParams(alpha, 0.8)
        with pytest.raises(DomainError, match=message):
            ml_one(alpha, np.array([-5.0, 0.0, 2.0]))

    def test_argument_caps(self):
        with pytest.raises(AccuracyError):
            ml_eval(MLParams(0.5, 1.0), -Z_MAX_NEG - 1.0)
        with pytest.raises(AccuracyError):
            ml_eval(MLParams(0.5, 1.0), Z_MAX_POS + 1.0)

    @pytest.mark.parametrize("alpha,beta", [(0.1, 200.0), (0.3, 200.0), (0.2, 180.0)])
    def test_series_past_gamma_underflow_raises(self, alpha, beta):
        # 1/Gamma(beta) underflows, so the leading terms read 0 while they
        # still rise; the largest terms are e^500185, e^77917 and e^294467
        with pytest.raises(AccuracyError, match="series term overflow"):
            ml_eval(MLParams(alpha, beta), 30.0)

    def test_series_past_gamma_underflow_sums_its_peak(self):
        # the terms of E[0.5,200](30) rise from e^-858 to a peak near e^-458
        # (mpmath sum of 8000 terms at 80 digits)
        got = ml_eval(MLParams(0.5, 200.0), 30.0)
        assert abs(got - 1.8698395010155558e-197) <= 1e-12 * 1.8698395010155558e-197

    def test_fast_growth_raises(self):
        # E[0.25,1](30) ~ exp(30^4) overflows float64; an honest error beats
        # a silent inf
        with pytest.raises(AccuracyError):
            ml_eval(MLParams(0.25, 1.0), 30.0)

    def test_boundary_arguments_supported(self):
        # frozen oracle values at the domain edges and at z = -100
        assert ml_eval(MLParams(0.5, 1.0), -100.0) == pytest.approx(
            0.005641613782989433, rel=1e-11
        )
        assert ml_eval(MLParams(0.5, 1.0), -Z_MAX_NEG) == pytest.approx(
            5.641895835474742e-07, rel=1e-10
        )
        assert ml_eval(MLParams(0.9, 0.9), -100.0) == pytest.approx(
            9.785063588909692e-06, rel=1e-10
        )
        assert ml_eval(MLParams(1.0, 1.0), 30.0) == math.exp(30.0)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            ml_eval(MLParams(0.5, 1.0), float("nan"))


class TestInvariants:
    def test_exponential_reduction_grid(self):
        for z in np.linspace(-20.0, 5.0, 201):
            got = ml_eval(MLParams(1.0, 1.0), float(z))
            assert abs(got - math.exp(z)) <= 1e-10 * max(1.0, math.exp(z))

    def test_value_at_zero_machine_exact(self):
        for beta in [0.25, 0.5, 1.0, 1.7, 3.0]:
            got = ml_eval(MLParams(0.6, beta), 0.0)
            assert got == pytest.approx(1.0 / math.gamma(beta), rel=2e-16)

    def test_value_at_zero_past_gamma_overflow(self):
        # math.gamma overflows past beta = 171.6, where 1/Gamma(b) is
        # subnormal or zero; below it the value is 1/math.gamma(b) exactly
        assert ml_eval(MLParams(0.5, 171.5), 0.0) == 1.0 / math.gamma(171.5)
        got = ml_eval(MLParams(0.5, 172.0), 0.0)
        assert got == pytest.approx(1 / math.factorial(171), rel=1e-12)
        assert 0.0 < got < 6e-309
        for alpha in (0.5, 1.0):
            p = MLParams(alpha, 200.0)
            assert ml_eval(p, 0.0) == 0.0
            assert ml_eval(p, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
        zs = np.array([-1.0, 0.0, -0.0])
        got = ml_eval(MLParams(0.5, 172.0), zs)
        assert got.tolist() == [ml_eval(MLParams(0.5, 172.0), z) for z in zs]

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.3), (0.5, 1.0), (0.8, 1.5), (1.0, 1.0)])
    def test_nonnegative_and_nonincreasing_on_negative_axis(self, alpha, beta):
        p = MLParams(alpha, beta)
        xs = np.linspace(0.0, 50.0, 1000)
        vals = np.array([ml_eval(p, -float(x)) for x in xs])
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) <= 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.2, 1.0, exclude_min=True),
        beta=st.floats(0.1, 3.0),
        z=st.floats(-40.0, 2.0),
    )
    def test_term_shift_identity(self, alpha, beta, z):
        # E[a,b](z) = z * E[a,a+b](z) + 1/Gamma(b)
        lhs = ml_eval(MLParams(alpha, beta), z)
        rhs_tail = ml_eval(MLParams(alpha, alpha + beta), z)
        rhs = z * rhs_tail + 1.0 / math.gamma(beta)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


# (alpha, beta, z values); the z values cross every branch: the negative
# axis from near 0 to the cap -Z_MAX_NEG (contour rule), z = 0 and z > 0
# (series)
_BRANCH_CROSSING = [
    (0.5, 0.5, [-Z_MAX_NEG, -100.0, -40.0, -7.5, -6.0, -5.99, -2.0, -1e-3, 0.0, 1e-3, 2.0]),
    (0.3, 1.3, [-50.0, -3.0, -2.9, -0.5, 0.0, 0.7]),
    (1.0, 1.0, [-100.0, -3.0, 0.0, 2.5]),
    (1.0, 0.4, [-Z_MAX_NEG, -100.0, -3.0, 0.0, 2.5]),
]


class TestArrayEvaluation:
    def test_cases_cross_every_branch(self):
        # the branches split by the sign of z: the contour rule at z < 0,
        # 1/Gamma(b) at z = 0 and the series at z > 0
        signs = {int(np.sign(z)) for _, _, zs in _BRANCH_CROSSING for z in zs}
        assert signs == {-1, 0, 1}

    @pytest.mark.parametrize("alpha,beta,zs", _BRANCH_CROSSING)
    def test_array_equals_scalar_loop_bit_for_bit(self, alpha, beta, zs):
        p = MLParams(alpha, beta)
        got = ml_eval(p, np.array(zs))
        assert isinstance(got, np.ndarray) and got.shape == (len(zs),)
        scalars = [ml_eval(p, z) for z in zs]
        assert all(type(v) is float for v in scalars)
        assert got.tolist() == scalars

    def test_shape_preserved(self):
        p = MLParams(0.6, 0.9)
        zs = np.linspace(-60.0, 2.0, 12).reshape(3, 4)
        got = ml_eval(p, zs)
        assert got.shape == (3, 4)
        assert got.ravel().tolist() == [ml_eval(p, z) for z in zs.ravel()]
        assert ml_eval(p, np.empty(0)).shape == (0,)
        assert type(ml_eval(p, np.float64(-1.0))) is float

    def test_series_raise_names_first_bad_point(self):
        # at alpha = 0.25 the term z^n / Gamma(n/4 + 1) passes e^709 near
        # n = 530 for z = 10 but near n = 230 for z = 30: the later point
        # fails first in term order, yet the error names z = 10
        p = MLParams(0.25, 1.0)

        def first_big_term(z):
            return next(n for n in range(8000) if n * math.log(z) - math.lgamma(n / 4 + 1) > 709)

        assert first_big_term(30.0) < first_big_term(10.0)
        with pytest.raises(AccuracyError) as scalar:
            ml_eval(p, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AccuracyError) as array:
                ml_eval(p, np.array([1.0, 0.0, -3.0, 10.0, 30.0, 2.0]))
        assert str(array.value) == str(scalar.value)
        assert str(array.value) == (
            "series term overflow for E[0.25,1.0](10.0); "
            "argument outside the supported growth range"
        )

    def test_array_domain_checks(self):
        p = MLParams(0.5, 1.0)
        with pytest.raises(AccuracyError):
            ml_eval(p, np.array([-1.0, -Z_MAX_NEG - 1.0]))
        with pytest.raises(AccuracyError):
            ml_eval(p, np.array([Z_MAX_POS + 1.0, 0.0]))
        with pytest.raises(DomainError):
            ml_eval(p, np.array([-1.0, float("nan")]))


class TestScalarFastPath:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize(
        "z",
        [-3, True, False, np.float64(-2.5), np.float32(-2.5), np.int64(-40), np.array(-7.25)],
        ids=["int", "true", "false", "float64", "float32", "int64", "0-d"],
    )
    def test_scalar_types_give_the_float_result(self, alpha, z):
        p = MLParams(alpha, 0.8)
        expected = ml_eval(p, float(z))
        got = ml_eval(p, z)
        assert type(got) is float and got == expected

    @pytest.mark.parametrize("alpha", [0.02, 0.3, 0.5, 0.999, 1.0])
    @pytest.mark.parametrize("beta", [0.05, 1.0, 6.0])
    def test_scalar_equals_one_element_array_at_branch_edges(self, alpha, beta):
        # the zero/contour/series edges at z = 0 and the cap -Z_MAX_NEG
        p = MLParams(alpha, beta)
        for z in (-0.0, -5e-324, 5e-324, -Z_MAX_NEG):
            got = ml_eval(p, float(z))
            assert type(got) is float
            assert np.array([got]).tobytes() == ml_eval(p, np.array([z])).tobytes()
        assert ml_eval(p, -0.0) == 1.0 / math.gamma(beta)

    @pytest.mark.parametrize(
        "z,error,message",
        [
            (float("nan"), DomainError, "z must be finite, got nan"),
            (float("inf"), DomainError, "z must be finite, got inf"),
            (-float("inf"), DomainError, "z must be finite, got -inf"),
            (np.float32("nan"), DomainError, "z must be finite, got nan"),
            (-1000000.5, AccuracyError, "z=-1000000.5 outside the supported domain [-1e+06, 30]"),
            (30.25, AccuracyError, "z=30.25 outside the supported domain [-1e+06, 30]"),
            (-1000001, AccuracyError, "z=-1000001.0 outside the supported domain [-1e+06, 30]"),
        ],
    )
    def test_domain_messages(self, z, error, message):
        for arg in (z, np.array([z])):
            with pytest.raises(error) as info:
                ml_eval(MLParams(0.5, 1.0), arg)
            assert str(info.value) == message

    def test_params_take_every_real_alpha_type(self):
        assert ml_eval(MLParams(np.float64(0.5), 1.0), -4.0) == ml_eval(MLParams(0.5, 1.0), -4.0)
        assert ml_eval(MLParams(1, 1.0), -1.0) == ml_eval(MLParams(1.0, 1.0), -1.0)
        with pytest.raises(DomainError):
            MLParams(float("nan"), 1.0)


class TestBranchConsistency:
    @pytest.mark.parametrize("alpha,beta", [(0.3, 1.0), (0.5, 0.5), (0.75, 1.2), (0.9, 0.9)])
    def test_series_vs_integral(self, alpha, beta):
        # the contour rule against the mpmath series of tests/oracles.py
        x = 0.8 * 14.0**alpha
        val_s = float(_ml_series_mp(alpha, beta, -x))
        val_i = _contour_sum(_contour_nodes(alpha, beta), x)
        assert abs(val_s - val_i) <= 1e-8 * max(1.0, abs(val_s))

    def test_confluent_vs_series(self):
        # alpha = 1, e^(-x) 1F1(b-1; b; x) / Gamma(b), on the contour against
        # the mpmath series of tests/oracles.py
        for beta in [0.25, 0.8, 1.5, 2.0]:
            val_c = _contour_sum(_contour_nodes(1.0, beta), 3.0)
            val_s = float(_ml_series_mp(1.0, beta, -3.0))
            assert val_c == pytest.approx(val_s, abs=1e-13, rel=1e-11)

    @pytest.mark.parametrize(
        "alpha,beta,z_max", [(0.3, 0.3, 5.5), (0.5, 1.0, 12.0), (0.75, 2.5, 30.0), (1.0, 0.4, 30.0)]
    )
    def test_series_matches_term_loop(self, alpha, beta, z_max):
        # reference: one point at a time, the float64 terms added in order
        # until the stop rule fires; the blocked running sums equal it bit
        # for bit
        def loop(z):
            total, prev = 0.0, math.inf
            for n in range(8000):
                t = float(np.exp(n * np.log(z) - math.lgamma(alpha * n + beta)))
                total += t
                if t <= 1e-16 * total and t < prev:
                    return total
                prev = t

        zs = np.append(5e-324, np.geomspace(1e-3, z_max, 9))
        assert ml_eval(MLParams(alpha, beta), zs).tolist() == [loop(z) for z in zs]


class TestDerivSignProbe:
    def test_first_difference_of_exponential(self):
        got = ml_deriv_sign_probe(MLParams(1.0, 1.0), 1.0, 1, 1e-3)
        assert got == pytest.approx(-math.exp(-1.0), abs=1e-6)
        assert got < 0.0

    def test_zeroth_order_positive(self):
        got = ml_deriv_sign_probe(MLParams(0.5, 0.5), 0.5, 0, 1e-3)
        assert got == pytest.approx(0.25634441145129333, rel=1e-10)
        assert got > 0.0

    def test_second_difference_nonnegative(self):
        got = ml_deriv_sign_probe(MLParams(0.8, 1.0), 2.0, 2, 1e-3)
        assert got >= 0.0

    def test_alternating_signs_up_to_third_order(self):
        p = MLParams(0.6, 0.9)
        for n in range(4):
            val = ml_deriv_sign_probe(p, 1.5, n, 1e-3)
            assert (-1.0) ** n * val >= -1e-6

    def test_probe_validation(self):
        p = MLParams(0.5, 1.0)
        with pytest.raises(DomainError):
            ml_deriv_sign_probe(p, 1.0, 4, 1e-3)
        with pytest.raises(DomainError):
            ml_deriv_sign_probe(p, 1.0, 1, 0.0)
        with pytest.raises(DomainError):
            ml_deriv_sign_probe(p, -1.0, 1, 1e-3)
        with pytest.raises(DomainError):
            ml_deriv_sign_probe(MLParams(0.5, 0.25), 1.0, 1, 1e-3)  # beta < alpha
        for x in (float("nan"), float("inf"), np.float64("nan")):
            with pytest.raises(DomainError, match="finite and nonnegative"):
                ml_deriv_sign_probe(p, x, 1, 1e-3)
