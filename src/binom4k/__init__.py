"""Rigorous verifier for series identities involving C(4k,k) and harmonic numbers.

Exact rational / number-field arithmetic certifies the symbolic claims;
directed-rounded enclosure arithmetic with certified tail bounds evaluates
every infinite series to a requested number of digits.  The package imports
none of its modules: import the one you need (`binom4k.series`,
`binom4k.catalog`, `binom4k.cli`, ...).
"""

__version__ = "0.1.0"
