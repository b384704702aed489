"""Run configuration: prime, precision, truncation and test-suite defaults."""

from dataclasses import dataclass, fields, replace

from .errors import SchemaError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Config:
    """Global knobs shared by the CLI and the randomized verification suites.

    p must be an odd prime (even residue characteristic is out of scope),
    ``precision`` is the absolute p-adic precision m (values are known modulo
    p^m), ``truncation`` the default series truncation degree N, ``n_max`` the
    deepest cyclotomic layer used in zero tests (at least 1), and ``guard``
    the number of digits a verdict must clear above the precision floor.
    """

    p: int = 5
    f: int = 1
    precision: int = 20
    truncation: int = 0  # 0 means "use p**3"
    n_max: int = 2
    guard: int = 4
    seed: int = 0

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.f < 1:
            raise ValueError("f must be >= 1")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not 0 <= self.guard < self.precision:
            raise ValueError(f"guard must be >= 0 and below precision "
                             f"{self.precision}, got {self.guard}")
        n = self.truncation if self.truncation else self.p ** 3
        if n < self.p ** 2:
            raise ValueError(f"truncation degree must be >= p^2 = {self.p ** 2}")
        object.__setattr__(self, "truncation", n)

    def with_overrides(self, **kw) -> "Config":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


def config_from_json(node, path="config") -> Config:
    """A Config from a parsed JSON object of its keys; a key it does not
    have, a value that is not an int, or a top level that is not an object
    raises SchemaError naming the key."""
    if not isinstance(node, dict):
        raise SchemaError(f"{path}: expected an object of config keys, "
                          f"got {type(node).__name__}")
    types = {f.name: f.type for f in fields(Config)}
    for key, value in node.items():
        if key not in types:
            raise SchemaError(f"{path}.{key}: unknown config key")
        if type(value) is not types[key]:
            raise SchemaError(f"{path}.{key}: expected int, "
                              f"got {type(value).__name__}")
    return Config(**node)


DEFAULT = Config()
