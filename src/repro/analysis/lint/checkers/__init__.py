"""Rule implementations and the fact iterators the summariser records.

Nothing is imported eagerly here: :func:`repro.analysis.lint.registry.
all_program_checkers` imports the rule modules (registering them) on
first use, and :mod:`repro.analysis.graph.summary` imports the fact
iterators from :mod:`.determinism` and :mod:`.wire`.
"""
