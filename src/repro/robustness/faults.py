"""The error the fault-injection test doubles raise.

The doubles themselves (a faulty cost model, a crashing strategy, a
stalling clock, a catalog corrupter) live in the test suite; the
orchestrator's pre-pass catches :class:`InjectedFault`, so the class
stays in the package.
"""


class InjectedFault(RuntimeError):
    """An error deliberately raised by the fault-injection harness."""
