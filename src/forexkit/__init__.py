"""forexkit: regression toolkit and one-month-ahead forecasting benchmark.

Five predictor families over a shared dataset pipeline:

- :mod:`forexkit.mars`    adaptive regression splines (hinge bases, GCV pruning)
- :mod:`forexkit.cart`    binary regression trees with cost-complexity pruning
- :mod:`forexkit.scg`     tanh MLP trained by scaled conjugate gradient
- :mod:`forexkit.anfis`   Takagi-Sugeno fuzzy inference with hybrid learning
- :mod:`forexkit.hybrid`  cooperative CART-then-MARS stack

plus :mod:`forexkit.bench` (the experiment harness), :mod:`forexkit.data`
(CSV loading, supervised table construction, splitting, scaling),
:mod:`forexkit.kinds` (the table of the five families),
:mod:`forexkit.synth` (synthetic datasets), :mod:`forexkit.charts`
(deterministic SVG plots), and :mod:`forexkit.predictor` (self-contained
predictor files for the CLI).
"""

from . import anfis, bench, cart, charts, data, hybrid, kinds, mars, predictor, scg, synth

__version__ = "1.0.0"

__all__ = ["anfis", "bench", "cart", "charts", "data", "hybrid", "kinds", "mars",
           "predictor", "scg", "synth", "__version__"]
