"""greedyvote: voting power and split/merge fairness under greedy weighted sampling.

Modules:

* ``weights``  - weight distributions, sampling distributions, splits, Zipf laws
* ``sampler``  - reproducible greedy sampling and the coupled pre/post-split sampler
* ``exact``    - exact draw-count/occupancy laws and voting power, k=2 closed forms
* ``fairness`` - Monte Carlo gain estimation, sweeps, KDE and QQ diagnostics
* ``fpc``      - basic fast-probabilistic-consensus round simulator
* ``cli``      - experiment runner (``greedyvote`` console script)
"""

__version__ = "0.1.0"
