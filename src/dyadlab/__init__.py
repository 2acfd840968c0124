"""dyadlab: exact dyadic-rational laboratory for translate-series constructions."""

__version__ = "0.1.0"
