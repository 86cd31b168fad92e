"""The immutable value classes (cfrac.Value and its five subclasses): a
cheap package import, value semantics, immutability, copies that rebuild
through the constructor, and derived slots that follow their inputs."""

import ast
import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ostro import SuiteConfig, cfrac, encode_nat, shiftcalc

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_dataclasses_inspect_argparse_or_json():
    # isolated mode: no user site, no PYTHONPATH; the modules the import adds
    # are those of sys.modules after it that were not there before
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import ostro, ostro.cli; print(sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(ast.literal_eval(proc.stdout))
    assert {"ostro", "ostro.cfrac", "ostro.harness", "ostro.cli"} <= added
    assert not added & {"dataclasses", "inspect", "argparse", "gettext", "json"}


# In one fresh interpreter, in this order: a scanned argv loads neither
# argparse nor json, --format json loads json alone, help loads argparse.
LOADED_BY_MAIN = """
import io, sys
sys.path.insert(0, sys.argv[1])
from ostro.cli import main
for argv in (["cf", "--d", "2"], ["cf", "--d", "2", "--format", "json"], ["cf", "-h"]):
    out, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    sys.stdout = out
    print(code, "argparse" in sys.modules, "json" in sys.modules)
"""


def test_main_loads_argparse_only_for_the_parser_and_json_only_for_json():
    proc = subprocess.run([sys.executable, "-I", "-c", LOADED_BY_MAIN, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 False False", "0 False True", "0 True True"]


def _values():
    """One instance of each value class and, per instance, a field with
    another value for it."""
    cf = cfrac.expand(3, 16)
    sc = cfrac.derive_shift_constants(cf)
    return [
        (cf, "period", (1, 3)),
        (sc, "unit", 2 * sc.unit),
        (cfrac.IdentityVerdict("unit-product", "holds", "holds", None), "corrected", "fails"),
        (shiftcalc.check_recover_frac(encode_nat(7, cf), sc), "n", 8),
        (SuiteConfig(d_list=(Fraction(3),), n_max=5), "n_max", 6),
    ]


FIELDS = {
    "CFData": ("d", "period", "conv_p", "conv_q", "zetas"),
    "ShiftConstants": ("d", "v_num", "w_num", "unit"),
    "IdentityVerdict": ("fact_id", "printed", "corrected", "witness"),
    "AuditEntry": ("lemma", "n", "printed", "corrected", "lhs", "rhs"),
    "SuiteConfig": ("d_list", "depth", "n_max", "n_unique", "lambda_n_max", "eps",
                    "lambda_samples", "probe_samples", "probe_l_max", "probe_q_limit",
                    "class_l_max", "seed", "identity_k_max"),
}


@pytest.mark.parametrize("case", range(5), ids=list(FIELDS))
def test_value_semantics(case):
    values = _values()
    value, field, other = values[case]
    names = FIELDS[type(value).__name__]
    assert type(value).__name__ == list(FIELDS)[case]
    # equal values compare and hash equal; a changed field breaks equality
    same = value.replace()
    assert same is not value and same == value and hash(same) == hash(value)
    changed = value.replace(**{field: other})
    assert getattr(changed, field) == other and changed != value
    assert all(getattr(changed, n) == getattr(value, n) for n in names if n != field)
    # keyword and positional construction agree
    args = [getattr(value, n) for n in names]
    assert type(value)(*args) == type(value)(**dict(zip(names, args))) == value
    # no value equals one of another class, even with the same fields
    assert all(value != v and not value == v for i, (v, _, _) in enumerate(values) if i != case)
    sub = type(type(value).__name__ + "Sub", (type(value),), {"__slots__": ()})
    assert sub(*args) != value and value != sub(*args)
    # immutable: no field can be set or deleted, and no attribute added
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, other)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert getattr(value, field) != other
    # copies rebuild equal values
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value
    # repr names every field, in order, with the repr of its value
    fields = ", ".join(f"{n}={getattr(value, n)!r}" for n in names)
    assert repr(value) == f"{type(value).__name__}({fields})"
    with pytest.raises(TypeError):
        value.replace(no_such_field=1)


def test_changed_config_runs_its_checks_again():
    config = SuiteConfig(d_list=(Fraction(3),))
    with pytest.raises(ValueError, match="^config field 'n_max' must be non-negative, got -1$"):
        config.replace(n_max=-1)
    with pytest.raises(ValueError, match="^config field 'eps' must be a rational, got 0.1$"):
        config.replace(eps=0.1)
    assert list(config.to_json()) == list(FIELDS["SuiteConfig"])


DERIVED = {
    "CFData": ("a0", "m", "s_max", "depth", "t", "dn", "dd"),
    "ShiftConstants": ("t", "a_const", "b_const", "pell_norm", "unit_inverse", "dn", "dd"),
}


def test_derived_slots_follow_their_inputs_on_every_copy():
    cf = cfrac.expand(Fraction(13, 4), 16)
    assert (cf.a0, cf.m, cf.s_max, cf.depth, cf.t) == (1, 6, 14, 16, 6)  # sqrt(13)/2 = 1.80...
    assert [cf.at_least(k).depth for k in (3, 16, 17, 40)] == [16, 16, 17, 40]
    short = cf.replace(period=(5,))  # t = max(m, 2)
    assert (short.a0, short.m, short.s_max, short.depth, short.t) == (1, 1, 5, 16, 2)
    sc = cfrac.derive_shift_constants(cf)
    unit = 2 * sc.unit + Fraction(1, 3)
    moved = sc.replace(unit=unit)
    b, a, _ = unit.scaled()
    assert (moved.t, moved.a_const, moved.b_const) == (sc.t, a, b) != (sc.t, sc.a_const, sc.b_const)
    assert moved.pell_norm == -unit.norm() and moved.unit_inverse == unit.inverse().scaled()
    for value in (cf, short, sc, moved):
        names = DERIVED[type(value).__name__]
        # derived values are no constructor inputs, and no slot can be changed
        for name in names:
            with pytest.raises(TypeError):
                value.replace(**{name: getattr(value, name)})
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        # copies rebuild equal values with equal derived slots
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert twin == value and all(getattr(twin, n) == getattr(value, n) for n in names)
    # a zero unit has no inverse, so constants holding it cannot be built
    with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
        sc.replace(unit=0 * sc.unit)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        sc.no_such_name


def test_radicand_parts_are_int_slots_that_follow_d():
    cf = cfrac.expand(Fraction(13, 4), 16)
    sc = cfrac.derive_shift_constants(cf)
    for value in (cf, sc):
        moved = value.replace(d=Fraction(7, 3))
        twins = (pickle.loads(pickle.dumps(moved)), copy.copy(moved), copy.deepcopy(moved))
        for v in (value, moved, *twins):
            assert (v.dn, v.dd) == (v.d.numerator, v.d.denominator)
            assert type(v.dn) is int and type(v.dd) is int
        assert (value.dn, value.dd) == (13, 4) and (moved.dn, moved.dd) == (7, 3)
        for name in ("dn", "dd"):
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(value, name, 1)
            with pytest.raises(TypeError):
                value.replace(**{name: 1})
        assert (value.dn, value.dd) == (13, 4)


class Pair(cfrac.Value):
    """A value whose __init__ hands _fill a chosen number of values."""

    _fields = ("x", "y")
    _derived = ("total",)
    __slots__ = (*_fields, *_derived)

    def __init__(self, x, y, extra=()) -> None:
        self._fill(x, y, x + y, *extra)


def test_fill_takes_exactly_one_value_per_slot():
    assert (Pair(1, 2).x, Pair(1, 2).y, Pair(1, 2).total) == (1, 2, 3)
    with pytest.raises(TypeError, match=r"^Pair takes 3 values \(fields, then derived\), got 4$"):
        Pair(1, 2, (9,))

    class Short(Pair):
        __slots__ = ()

        def __init__(self, x, y) -> None:
            self._fill(x, y)

    with pytest.raises(TypeError, match=r"^Short takes 3 values \(fields, then derived\), got 2$"):
        Short(1, 2)
