"""Activation stress-test lab for normalization-free plain conv nets.

A minimal numpy autodiff engine, four activation functions (relu, gelu,
swish, and the learnable per-channel zero-centered swish), BN-free
VGG-style PlainNet models, a CIFAR-100 training harness for a
deliberately bare regime, and diagnostics for layer-wise activation
mean drift. The ``actlab`` command line is the human interface.

The package root re-exports nothing: import the submodules
(``actlab.tensor``, ``actlab.activations``, ``actlab.plainnet``,
``actlab.data``, ``actlab.trainer``, ``actlab.probes``, ``actlab.config``,
``actlab.cli``) and take names from them.
"""

__version__ = "0.1.0"
