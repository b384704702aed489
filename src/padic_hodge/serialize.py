"""JSON (de)serialization for scalars, series and filtered modules.

Formats:

* scalar:  {"val": int|null, "unit": "<base-p digits, least significant
  first>", "prec": int}, a Q_p scalar: read as an element of the module's
  field whose coordinates above 0 are zero.  Plain ints and "a/b" strings
  are accepted as exact shorthand anywhere a scalar is expected.
* field element: array of f scalars, its power-basis coordinates (a plain
  int or "a/b" string is shorthand for a rational element).
* series:  {"trunc": N, "bound": rational-or-null, "coeffs": [field
  elements]} with optional "log_slope"/"index_shift" (the two extra profile
  components), "tail_zero" and "prec".
* log polynomial: {"terms": {"<exponent>": series, ...}}.
* module:  {"p": int, "f": int, "defpoly": [ints], "dim": d,
  "phi": [[field elements]] (rows), "filtration": [{"jump": j,
  "basis": [[field elements], ...]}, ...]} with optional "precision" and
  "work_margin".

Schema violations raise SchemaError carrying the path of the offending
field.
"""

from fractions import Fraction
import json

from .config import is_prime
from .errors import SchemaError
from .padics import (GUARD, PRECISION, WORK_MARGIN, FieldElement,
                     UnramifiedField)
from .series import TruncatedSeries
from .seriesops import LogPolynomial
from .modules import FilteredPhiModule, Subspace


def _fail(path, msg):
    raise SchemaError(f"{path}: {msg}")


def _int_at(node, key, path, default, least=0):
    """node[key] (or ``default`` when absent): an int, bools excluded, of at
    least ``least``."""
    value = node.get(key, default)
    if type(value) is not int or value < least:
        _fail(f"{path}.{key}", f"expected int >= {least}, got {value!r}")
    return value


def rational_to_json(x):
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def rational_from_json(node, path):
    if node is None:
        return None
    if isinstance(node, int):
        return Fraction(node)
    if isinstance(node, str):
        try:
            if "/" in node:
                num, den = node.split("/")
                return Fraction(int(num), int(den))
            return Fraction(int(node))
        except (ValueError, ZeroDivisionError):
            _fail(path, f"not a rational: {node!r}")
    _fail(path, f"expected int, 'a/b' string or null, got {type(node).__name__}")


def _digits_to_str(digits, p):
    if p < 10:
        return "".join(str(d) for d in digits)
    return ".".join(str(d) for d in digits)


def _digits_from_str(s, p, path):
    if s == "":
        return 0
    try:
        if p < 10 and "." not in s:
            digs = [int(ch) for ch in s]
        else:
            digs = [int(part) for part in s.split(".")]
    except ValueError:
        _fail(path, f"bad digit string {s!r}")
    if any(d < 0 or d >= p for d in digs):
        _fail(path, f"digit out of range for base {p}")
    # Horner from the top digit: linear in the number of digits
    acc = 0
    for d in reversed(digs):
        acc = acc * p + d
    return acc


def scalar_to_json(s: FieldElement):
    """A Q_p scalar: the unit is res[0], written to prec - val digits."""
    if s.is_zero:
        return {"val": None, "unit": "", "prec": s.prec}
    p = s.field.p
    u, digits = s.res[0], []
    for _ in range(s.prec - s.val):
        u, d = divmod(u, p)
        digits.append(d)
    return {"val": s.val, "unit": _digits_to_str(digits, p), "prec": s.prec}


def scalar_from_json(node, field, path="scalar"):
    """A Q_p scalar of ``field``, known to its working precision unless the
    node says otherwise."""
    if isinstance(node, (int, str)):
        return field.scalar(rational_from_json(node, path))
    if not isinstance(node, dict):
        _fail(path, "expected scalar object, int or string")
    prec = node.get("prec", field.work_prec)
    if type(prec) is not int:
        _fail(path + ".prec", "expected int")
    val = node.get("val")
    if val is None:
        return field.zero(prec)
    if type(val) is not int:
        _fail(path + ".val", "expected int or null")
    if prec <= val:
        _fail(path + ".prec", f"a nonzero scalar needs prec above val {val}, "
                              f"got {prec}")
    p = field.p
    unit = node.get("unit", "")
    if not isinstance(unit, str):
        _fail(path + ".unit", "expected a digit string")
    unit = _digits_from_str(unit, p, path + ".unit")
    if unit % p == 0:
        _fail(path + ".unit", "unit part must not be divisible by p")
    return field.from_residues(val, (unit,) + (0,) * (field.f - 1), prec)


def element_to_json(a: FieldElement):
    return [scalar_to_json(a.coordinate(l)) for l in range(a.field.f)]


def element_from_json(node, field, path="element"):
    if isinstance(node, (int, str)):
        return field.coerce(rational_from_json(node, path))
    if not isinstance(node, list):
        _fail(path, "expected array of scalars (or int/string shorthand)")
    if len(node) != field.f:
        _fail(path, f"expected {field.f} coordinates, got {len(node)}")
    coords = [scalar_from_json(c, field, f"{path}[{i}]")
              for i, c in enumerate(node)]
    return field.element(coords)


def series_to_json(s: TruncatedSeries):
    out = {
        "trunc": s.n,
        "bound": None,
        "coeffs": [element_to_json(s.coeff(i)) for i in range(s.n + 1)],
        "tail_zero": s.tail_zero,
        "prec": s.prec,
    }
    prof = s.effective_bound()
    if prof is not None:
        out["bound"] = rational_to_json(prof[0])
        if prof[1]:
            out["log_slope"] = prof[1]
        if prof[2]:
            out["index_shift"] = prof[2]
    return out


def series_from_json(node, field, path="series"):
    if not isinstance(node, dict):
        _fail(path, "expected series object")
    n = _int_at(node, "trunc", path, None)
    coeffs_node = node.get("coeffs")
    if not isinstance(coeffs_node, list):
        _fail(path + ".coeffs", "expected array")
    coeffs = [element_from_json(c, field, f"{path}.coeffs[{i}]")
              for i, c in enumerate(coeffs_node)]
    b = rational_from_json(node.get("bound"), path + ".bound")
    bound = None
    if b is not None:
        bound = (b, _int_at(node, "log_slope", path, 0),
                 _int_at(node, "index_shift", path, 0))
    tail_zero = node.get("tail_zero", bound is None)
    if not isinstance(tail_zero, bool):
        _fail(path + ".tail_zero", "expected true or false")
    prec = node.get("prec")
    if prec is not None and type(prec) is not int:
        _fail(path + ".prec", "expected int or null")
    return TruncatedSeries.make(field, coeffs, n=n, bound=bound,
                                tail_zero=tail_zero, prec=prec)


def logpoly_to_json(lp: LogPolynomial):
    return {"terms": {str(i): series_to_json(c) for i, c in
                      sorted(lp.terms.items())}}


def logpoly_from_json(node, field, path="logpoly"):
    if not isinstance(node, dict) or not isinstance(node.get("terms"), dict):
        _fail(path + ".terms", "expected an object of series by exponent")
    terms = {}
    for key, sub in node["terms"].items():
        try:
            i = int(key)
        except ValueError:
            _fail(f"{path}.terms.{key}", "exponent keys must be integers")
        terms[i] = series_from_json(sub, field, f"{path}.terms.{key}")
    return LogPolynomial(terms)


def module_to_json(m: FilteredPhiModule):
    return {
        "p": m.field.p,
        "f": m.field.f,
        "defpoly": list(m.field.defpoly),
        "dim": m.d,
        "precision": m.field.prec,
        "work_margin": m.field.work_prec - m.field.prec,
        "phi": [[element_to_json(c) for c in row] for row in m.phi_matrix],
        "filtration": [{"jump": j,
                        "basis": [[element_to_json(c) for c in vec]
                                  for vec in sub.basis]}
                       for j, sub in m.filtration],
    }


def module_from_json(node, path="module", precision=None, work_margin=None,
                     guard=GUARD):
    if not isinstance(node, dict):
        _fail(path, "expected module object")
    for key in ("p", "dim", "phi", "filtration"):
        if key not in node:
            _fail(f"{path}.{key}", "missing required field")
    p = node["p"]
    if type(p) is not int or p == 2 or not is_prime(p):
        _fail(f"{path}.p", f"expected an odd prime, got {p!r}")
    f = _int_at(node, "f", path, 1, 1)
    # the file's keys are checked even where the caller overrides them
    prec = _int_at(node, "precision", path, PRECISION, 1)
    margin = _int_at(node, "work_margin", path, WORK_MARGIN)
    prec = precision or prec
    margin = margin if work_margin is None else work_margin
    defpoly = node.get("defpoly")
    if defpoly is not None and not (
            isinstance(defpoly, list) and
            all(type(c) is int for c in defpoly)):
        _fail(f"{path}.defpoly", "expected an array of ints or null")
    try:
        field = UnramifiedField(p, f, prec, defpoly=defpoly,
                               work_margin=margin, guard=guard)
    except ValueError as e:
        _fail(f"{path}.defpoly", str(e))
    d = _int_at(node, "dim", path, None)
    phi_node = node["phi"]
    if not (isinstance(phi_node, list) and len(phi_node) == d and
            all(isinstance(r, list) and len(r) == d for r in phi_node)):
        _fail(f"{path}.phi", f"expected a {d}x{d} array of field elements")
    phi = [[element_from_json(c, field, f"{path}.phi[{i}][{j}]")
            for j, c in enumerate(row)] for i, row in enumerate(phi_node)]
    filt_node = node["filtration"]
    if not isinstance(filt_node, list) or not filt_node:
        _fail(f"{path}.filtration", "expected a non-empty array of steps")
    filtration = []
    for k, step in enumerate(filt_node):
        sp = f"{path}.filtration[{k}]"
        if not isinstance(step, dict) or "jump" not in step or \
                "basis" not in step:
            _fail(sp, "expected {'jump': int, 'basis': [[...]]}")
        j = step["jump"]
        if type(j) is not int:
            _fail(sp + ".jump", "expected int")
        if not isinstance(step["basis"], list):
            _fail(sp + ".basis", "expected an array of vectors")
        vecs = []
        for vi, vec in enumerate(step["basis"]):
            if not isinstance(vec, list) or len(vec) != d:
                _fail(f"{sp}.basis[{vi}]", f"expected a length-{d} vector")
            vecs.append([element_from_json(c, field,
                                           f"{sp}.basis[{vi}][{ci}]")
                         for ci, c in enumerate(vec)])
        filtration.append((j, Subspace(field, d, vecs)))
    try:
        return FilteredPhiModule(field, phi, filtration)
    except (ValueError, ArithmeticError) as e:
        _fail(path, f"invariant violation: {e}")


def load_json(pathname):
    """The parsed contents of a JSON file; a file that does not parse raises
    SchemaError naming its path."""
    with open(pathname) as fobj:
        try:
            return json.load(fobj)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{pathname}: invalid JSON: {e}") from e


def parse_module_file(pathname, precision=None, work_margin=None,
                      guard=GUARD):
    """Load and fully validate a filtered module from a JSON file."""
    return module_from_json(load_json(pathname), path=str(pathname),
                            precision=precision, work_margin=work_margin,
                            guard=guard)


def parse_series_file(pathname, field):
    return series_from_json(load_json(pathname), field, path=str(pathname))
