"""Budget lines and spend accounting for both players.

Budgets follow a supply line kappa + rho*k; a plan is admissible only if every
prefix of it stays inside the line (later supply cannot excuse an early overdraw).
In node-attack mode the attacker's betas price attacked nodes instead of edges.
The defender's cost model has two charging modes: 'charged' bills the full planned
recovery set (misses become waste), 'free' bills only recoveries that actually
restore an edge, which is the same thing as charging the applied set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dynamics import as_fraction

EDGE_ATTACK = "edge"
NODE_ATTACK = "node"
WASTE_CHARGED = "charged"
WASTE_FREE = "free"


@dataclass(frozen=True)
class EnergyParams:
    """Supply line and per-item prices for one player.

    Attacker instances carry beta_normal and beta_strong (strong must cost more);
    defender instances carry beta_recover.
    """

    kappa: Fraction
    rho: Fraction
    beta_normal: Fraction | None = None
    beta_strong: Fraction | None = None
    beta_recover: Fraction | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", as_fraction(self.kappa))
        object.__setattr__(self, "rho", as_fraction(self.rho))
        for name in ("beta_normal", "beta_strong", "beta_recover"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, as_fraction(v))
        if not (self.kappa >= self.rho > 0):
            raise ValueError(f"need kappa >= rho > 0, got kappa={self.kappa}, rho={self.rho}")
        for name in ("beta_normal", "beta_strong", "beta_recover"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive, got {v}")
        if self.beta_normal is not None and self.beta_strong is not None:
            if not self.beta_strong > self.beta_normal:
                raise ValueError(
                    f"strong attacks must cost more than normal ones, "
                    f"got {self.beta_strong} <= {self.beta_normal}"
                )

    @classmethod
    def attacker(cls, kappa, rho, beta_normal, beta_strong) -> EnergyParams:
        return cls._priced(kappa, rho, beta_normal=beta_normal, beta_strong=beta_strong)

    @classmethod
    def defender(cls, kappa, rho, beta_recover) -> EnergyParams:
        return cls._priced(kappa, rho, beta_recover=beta_recover)

    @classmethod
    def _priced(cls, kappa, rho, **prices) -> EnergyParams:
        """A player's parameters; each of its prices is required, so None is refused."""
        params = cls(kappa=kappa, rho=rho, **prices)
        for name, value in prices.items():
            if value is None:
                raise ValueError(f"{name} must be a price, got None")
        return params


@dataclass(frozen=True)
class CostModel:
    """Attack granularity (edge or node) and defender waste charging mode."""

    mode: str = EDGE_ATTACK
    waste: str = WASTE_CHARGED

    def __post_init__(self) -> None:
        if self.mode not in (EDGE_ATTACK, NODE_ATTACK):
            raise ValueError(f"unknown attack mode {self.mode!r}")
        if self.waste not in (WASTE_CHARGED, WASTE_FREE):
            raise ValueError(f"unknown waste mode {self.waste!r}")


def budget_at(p: EnergyParams, k: int) -> Fraction:
    """Energy available through time step k: kappa + rho*k."""
    if k < 0:
        raise ValueError(f"time step must be nonnegative, got {k}")
    return p.kappa + p.rho * k


def attack_cost(strong, normal, p: EnergyParams) -> Fraction:
    """Cost of one attack: beta_strong per strong item plus beta_normal per normal item.

    Items are edges in edge mode and nodes in node mode; the caller passes the
    sets at the priced granularity.
    """
    strong = frozenset(strong)
    normal = frozenset(normal)
    if strong & normal:
        raise ValueError(f"items attacked both ways: {sorted(strong & normal)}")
    if p.beta_strong is None or p.beta_normal is None:
        raise ValueError("attack pricing needs attacker betas")
    return p.beta_strong * len(strong) + p.beta_normal * len(normal)


def defense_cost(recover, attacked_normal, cm: CostModel, p: EnergyParams) -> tuple[Fraction, Fraction]:
    """(cost, waste) of a planned recovery given the step's normally attacked edges."""
    if p.beta_recover is None:
        raise ValueError("defense pricing needs beta_recover")
    recover = frozenset(recover)
    attacked_normal = frozenset(attacked_normal)
    if cm.waste == WASTE_FREE:
        return p.beta_recover * len(recover & attacked_normal), Fraction(0)
    cost = p.beta_recover * len(recover)
    waste = p.beta_recover * len(recover - attacked_normal)
    return cost, waste

