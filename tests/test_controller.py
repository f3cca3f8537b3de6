"""Executor parity, collected under this module too.

The serving layer's window sizing is a fixed ``W``/``T`` pair; what this
module pins is that the batched executor it drives stays bit-identical to
the serial reference loop for every partitioner and every kernel
selection. The cases live in :mod:`test_batch_parity`.
"""

from test_batch_parity import TestExecutorParity  # noqa: F401
