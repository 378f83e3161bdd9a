"""Dynamic pricing with demand learning under a finite inventory.

The package is used through its submodules, and importing it loads none of
them.  It is organized around a small set of pieces:

``demand``
    the five demand families (linear, exponential, logit, piecewise linear
    with a kink, worst-case linear), deterministic benchmark prices and
    values
``market_sim``
    Poisson market simulator; ``run_block`` runs a block of seasons in
    lockstep, driving the policies' ``season(block)`` generator, which
    yields (rows, prices, duration) passes of in-box prices and is sent
    which rows ran in full and their sales counts
``schedules`` / ``policies``
    learning schedules and the two-track shrinking-interval policies,
    plus fixed-price (clairvoyant at p_D) and single-phase baselines
``regret_harness``
    Monte Carlo regret estimation and log-log scaling sweeps
``lower_bound``
    worst-case linear family and information-theoretic regret floor checks
``cli``
    command line front end (solve / run / sweep / lowerbound / check)
"""

__version__ = "0.1.0"
