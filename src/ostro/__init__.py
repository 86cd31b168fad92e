"""Exact continued fractions of sqrt(d), Ostrowski digits, and certified
multiplication by sqrt(d) carried out on the digit strings themselves.

Layers, bottom up:

    qfield     exact arithmetic and comparisons in Q(sqrt(d))
    cfrac      expansion of sqrt(d), identity audit, shift constants
    ostrowski  digit strings for naturals and for reals in the
               fundamental interval, certified greedy encoding
    shiftcalc  recovery identities, multiplication by sqrt(d) at
               representation level, digit probes
    harness    batch verification over a suite of radicands
    cli        the ``ostro`` command
"""

from .cfrac import (
    CFData,
    DEFAULT_DEPTH,
    IdentityVerdict,
    ShiftConstants,
    audit_identities,
    derive_shift_constants,
    expand,
    normalize_d,
)
from .errors import (
    DepthExceeded,
    InvalidDigits,
    MixedRadicand,
    OstroError,
    OutOfDomain,
    OutOfInterval,
    RationalSquare,
    UnsupportedRadicand,
    VerificationFailed,
    WitnessUnavailable,
)
from .harness import DEFAULT_D_LIST, SuiteConfig, run_suite
from .ostrowski import (
    KIND_NAT,
    KIND_REAL,
    OstDigits,
    decode_nat,
    decode_real,
    encode_nat,
    encode_real,
    enumerate_valid,
    in_interval,
    interval_bounds,
    make_digits,
    mult_nat_by_sqrt,
    parse_digit_text,
    tail_window,
    validate,
)
from .qfield import QuadRat, is_rational_square, parse_quad, parse_rat, quad
from .shiftcalc import (
    AuditEntry,
    check_recover_frac,
    check_recover_nat,
    prefix_nat,
    prefix_window,
    residue_class_probe,
    times_sqrt_frac,
    times_sqrt_nat,
    times_sqrt_real,
    window_digit,
)

__version__ = "0.1.0"

__all__ = [
    "AuditEntry",
    "CFData",
    "DEFAULT_DEPTH",
    "DEFAULT_D_LIST",
    "DepthExceeded",
    "IdentityVerdict",
    "InvalidDigits",
    "KIND_NAT",
    "KIND_REAL",
    "MixedRadicand",
    "OstDigits",
    "OstroError",
    "OutOfDomain",
    "OutOfInterval",
    "QuadRat",
    "RationalSquare",
    "ShiftConstants",
    "SuiteConfig",
    "UnsupportedRadicand",
    "VerificationFailed",
    "WitnessUnavailable",
    "audit_identities",
    "check_recover_frac",
    "check_recover_nat",
    "decode_nat",
    "decode_real",
    "derive_shift_constants",
    "encode_nat",
    "encode_real",
    "enumerate_valid",
    "expand",
    "in_interval",
    "interval_bounds",
    "is_rational_square",
    "make_digits",
    "mult_nat_by_sqrt",
    "normalize_d",
    "parse_digit_text",
    "parse_quad",
    "parse_rat",
    "prefix_nat",
    "prefix_window",
    "quad",
    "residue_class_probe",
    "run_suite",
    "tail_window",
    "times_sqrt_frac",
    "times_sqrt_nat",
    "times_sqrt_real",
    "validate",
    "window_digit",
]
