"""qserre: exact verification of commuting Q-operator families in q-Serre algebras."""

from qserre.qfield import QRat, q_power, s_power

__all__ = ["QRat", "q_power", "s_power"]
