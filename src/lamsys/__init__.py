"""Finite-scale systems of leveled trees with based families, exact abelian
group presentations, witness-equation solving, and ladder-system
uniformization tables, all with re-verifiable certificates.

Nothing is re-exported here: import each name from its module, so that
importing one module loads only what that module needs."""

__version__ = "0.1.0"
