"""greedyvote: voting power and split/merge fairness under greedy weighted sampling.

Modules:

* ``weights``  - weight distributions, sampling distributions, splits, Zipf laws
* ``sampler``  - reproducible greedy sampling and the coupled pre/post-split sampler
* ``exact``    - exact draw-count/occupancy laws, voting power ``voting_power_exact``
  and the split gain ``split_gain`` at any k, and at k=2 the limit curve
  ``tau_limit`` and its maximum ``tau_argmax``
* ``fairness`` - Monte Carlo gain estimation, sweeps, KDE and QQ diagnostics
* ``fpc``      - basic fast-probabilistic-consensus round simulator
* ``cli``      - experiment runner (``greedyvote`` console script)
"""

__version__ = "0.1.0"
