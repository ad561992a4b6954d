"""randamp: randomness amplification from weak sources via biased nonlocal games.

Submodules:
  sources     extremal epsilon-free bit sources and their steering sign patterns
  games       nonlocal game definitions, behaviors, success probability
  strategies  deterministic and quantum strategies, classical/quantum values
  sdp         dense primal-dual interior-point semidefinite solver
  npa         moment-matrix relaxations and bias bounds for game behaviors
  protocol    finite-round protocol parameter calculus
  simulator   Monte Carlo protocol runs, honest and adversarial
  cli         command line entry points
"""

__version__ = "0.1.0"
