"""The immutable value classes (cfrac.Value and its five subclasses): a
cheap package import, value semantics, immutability, copies that rebuild
through the constructor, and the lazy ShiftConstants.unit_inverse."""

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


def test_import_loads_no_dataclasses_or_inspect():
    # isolated mode: no user site, no PYTHONPATH; the modules the import adds
    # are those of sys.modules after it that were not there before
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import ostro, ostro.cli; print(sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(ast.literal_eval(proc.stdout))
    assert {"ostro", "ostro.cfrac", "ostro.harness", "ostro.cli"} <= added
    assert not added & {"dataclasses", "inspect"}


def _values():
    """One instance of each value class and, per instance, a field with
    another value for it."""
    cf = cfrac.expand(3, 16)
    sc = cfrac.derive_shift_constants(cf)
    return [
        (cf, "depth", 17),
        (sc, "t", 4),
        (cfrac.IdentityVerdict("unit-product", "holds", "holds", None), "corrected", "fails"),
        (shiftcalc.check_recover_frac(encode_nat(7, cf), sc), "n", 8),
        (SuiteConfig(d_list=(Fraction(3),), n_max=5), "n_max", 6),
    ]


FIELDS = {
    "CFData": ("d", "a0", "period", "m", "s_max", "conv_p", "conv_q", "zetas", "depth"),
    "ShiftConstants": ("d", "t", "v_num", "w_num", "unit", "a_const", "b_const", "pell_norm"),
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


def test_unit_inverse_is_cached_and_fresh_on_a_copy():
    sc = cfrac.derive_shift_constants(cfrac.expand(3, 16))
    first = sc.unit_inverse
    assert first == sc.unit.inverse().scaled() and sc.unit_inverse is first
    doubled = sc.replace(unit=2 * sc.unit)
    assert doubled.unit_inverse == (2 * sc.unit).inverse().scaled() != first
    assert copy.copy(sc).unit_inverse == first
    with pytest.raises(TypeError):
        sc.replace(unit_inverse=(1, 0, 1))  # a cache, not a field
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        sc.no_such_name
