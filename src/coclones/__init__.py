"""Boolean constraint languages: co-clone identification, weak bases,
dichotomy classifiers, gadget reductions, and exhaustive oracles.

The package imports nothing itself; import the submodule you need
(`coclones.postlattice`, `coclones.oracle`, ...)."""

__version__ = "0.1.0"
