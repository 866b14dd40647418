"""Fault-tolerant preparation circuits for CSS stabilizer states.

The toolkit covers the full pipeline: bipartite CX synthesis for a CSS
state, discovery of minimal flag gadgets, fusion and scheduling of the
fault-tolerant preparation circuit, exhaustive fault-tolerance
verification, subset-sampling Pauli-frame Monte Carlo, look-up-table
decoding, and logical-error experiments with a Steane-QEC gadget.
"""

from .css import CssState, validate_css_state

__all__ = ["CssState", "validate_css_state"]

__version__ = "0.1.0"
