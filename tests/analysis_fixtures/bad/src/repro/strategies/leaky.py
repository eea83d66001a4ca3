"""pickle-boundary fixture: unpicklable state on a strategy."""

import threading

from repro.strategies.base import SelectionStrategy


class LeakyStrategy(SelectionStrategy):
    spec = "leaky"
    name = "Leaky"

    def __init__(self):
        # BAD: locks do not pickle across the remote fit boundary.
        self._lock = threading.Lock()
        # BAD: neither do lambdas.
        self._scorer = lambda model_id: 0.0
