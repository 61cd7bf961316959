"""Weak Hopf C*-algebras of Tambara-Yamagami categories.

Construction of the groupoid algebra from (G, chi, tau), numerical
verification of its defining axioms, builders and verifiers for (weak)
coideal subalgebras, and orbit enumeration of their isomorphism classes.
"""

__version__ = "0.1.0"
