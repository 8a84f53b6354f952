"""Per-module attribution of time and calls, from outside the program.

``Tracer.install`` replaces every public function of each depth2kit
module, and every public method of the classes it defines (plus
``__call__`` and the ``__post_init__`` validators), with a wrapper that
counts the call and times it.  The wrapper is put in place of the
original in every depth2kit module namespace that holds it, so calls
between modules go through it as well.  Private helpers are not
wrapped: their time counts to the public function that called them.

A module's self time is the time inside its wrapped calls minus the
time inside wrapped calls they made in turn, so the self times of all
modules add up to the time inside the outermost wrapped calls.  A
generator function is timed on each resumption and counted once.

Probes add inclusive time for named functions, and can look at each
call's arguments and result; the time a probe itself takes is charged
to no module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("boolean", "operators", "duality", "frames", "formulas",
           "semantics", "verify", "cli")

_DUNDERS = ("__call__", "__post_init__")


class Probe:
    """Inclusive time of one function, with an optional result callback."""

    def __init__(self, on_result=None):
        self.busy_s = 0.0
        self.calls = 0
        self.on_result = on_result


class Tracer:
    def __init__(self, probes: dict[str, Probe] | None = None):
        self.self_s = [0.0] * len(MODULES)
        self.calls = [0] * len(MODULES)
        # time of wrapped calls made inside the call on top of the stack;
        # the bottom entry collects the outermost calls
        self._child_s = [0.0]
        self._probes = dict(probes or {})
        self._undo: list[tuple[object, str, object]] = []

    def summary(self) -> dict:
        return {
            "self_s": dict(zip(MODULES, self.self_s)),
            "calls": dict(zip(MODULES, self.calls)),
            "probes": {
                name: {"busy_s": p.busy_s, "calls": p.calls}
                for name, p in self._probes.items()
            },
        }

    def install(self) -> "Tracer":
        modules = {name: importlib.import_module(f"depth2kit.{name}")
                   for name in MODULES}
        replace = {}
        for index, name in enumerate(MODULES):
            module = modules[name]
            for attr, value in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    probe = self._probes.get(f"{name}.{attr}")
                    replace[value] = self._wrap(value, index, probe)
                elif (inspect.isclass(value) and value.__module__ == module.__name__
                      and not issubclass(value, BaseException)):
                    self._wrap_methods(value, index)
        namespaces = [m for n, m in sys.modules.items()
                      if n == "depth2kit" or n.startswith("depth2kit.")]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in replace:
                    self._undo.append((namespace, attr, value))
                    setattr(namespace, attr, replace[value])
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap_methods(self, cls, index: int) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            if inspect.isfunction(value):
                self._undo.append((cls, attr, value))
                setattr(cls, attr, self._wrap(value, index, None))

    def _wrap(self, fn, index: int, probe: Probe | None):
        calls, self_s, child_s = self.calls, self.self_s, self._child_s
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                calls[index] += 1
                inner = fn(*args, **kwargs)
                while True:
                    child_s.append(0.0)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        self_s[index] += elapsed - child_s.pop()
                        child_s[-1] += elapsed
                    yield item

            return functools.wraps(fn)(traced_generator)

        if probe is None:
            def traced(*args, **kwargs):
                calls[index] += 1
                child_s.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    self_s[index] += elapsed - child_s.pop()
                    child_s[-1] += elapsed

            return functools.wraps(fn)(traced)

        def probed(*args, **kwargs):
            calls[index] += 1
            probe.calls += 1
            child_s.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                self_s[index] += elapsed - child_s.pop()
                probe.busy_s += elapsed
                if probe.on_result is not None and result is not None:
                    probe.on_result(args, kwargs, result)
                # the callback's own time is charged to no module
                child_s[-1] += clock() - start

        return functools.wraps(fn)(probed)


SEARCHES = ("frame_validates", "algebra_validates", "quasiidentity_holds",
            "premises_active")


class LayerProbes:
    """The probes behind the per-layer metrics that go beyond self time and calls.

    The validity searches stop at the first witness in lexicographic
    order, so a search needs every valuation for a valid verdict and
    the witness's rank + 1 otherwise; ``valuations`` adds these up from
    each call's inputs and result.  With ``witnesses`` set, every
    returned witness is kept for ``recheck``.
    """

    def __init__(self, keep_witnesses: bool):
        import reference

        self.ref = reference
        self.valuations = 0
        self.witnesses = [] if keep_witnesses else None
        self._formulas = {}
        self.probes = {f"semantics.{name}": Probe(getattr(self, f"_{name}"))
                       for name in SEARCHES}
        for name in ("frames.enumerate_frames", "frames.canonical_form",
                     "duality.algebras_isomorphic"):
            self.probes[name] = Probe()

    def _formula(self, formula):
        # keyed by identity; the entry keeps the formula alive so the id stays unique
        entry = self._formulas.get(id(formula))
        if entry is None:
            entry = self._formulas[id(formula)] = (formula, self.ref.from_ast(formula))
        return entry[1]

    def _count(self, space, formulas, witness):
        if witness is None:
            names = set().union(*(self.ref.variables(f) for f in formulas))
            self.valuations += space ** len(names)
        else:
            self.valuations += self.ref.lexicographic_rank(witness, space) + 1

    def _keep(self, *record):
        if self.witnesses is not None:
            self.witnesses.append(record)

    def _frame_validates(self, args, kwargs, result):
        frame, formula = args[0], self._formula(args[1])
        valid, witness = result
        self._count(1 << frame.n_worlds, (formula,), None if valid else witness)
        if not valid:
            self._keep("falsifies in frame", frame.rows, (formula,), None, witness)

    def _algebra_validates(self, args, kwargs, result):
        algebra, formula = args[0], self._formula(args[1])
        valid, witness = result
        self._count(1 << algebra.n_atoms, (formula,), None if valid else witness)
        if not valid:
            self._keep("falsifies in algebra", algebra.op.atom_values, (formula,),
                       None, witness)

    def _quasiidentity_holds(self, args, kwargs, result):
        algebra = args[0]
        premises = tuple(self._formula(p) for p in args[1])
        conclusion = self._formula(args[2])
        holds, witness = result
        self._count(1 << algebra.n_atoms, premises + (conclusion,),
                    None if holds else witness)
        if not holds:
            self._keep("refutes", algebra.op.atom_values, premises, conclusion, witness)

    def _premises_active(self, args, kwargs, result):
        algebra = args[0]
        premises = tuple(self._formula(p) for p in args[1])
        active, witness = result
        self._count(1 << algebra.n_atoms, premises, witness if active else None)
        if active:
            self._keep("activates", algebra.op.atom_values, premises, None, witness)

    def recheck(self) -> list[str]:
        """Errors for witnesses that the reference evaluator does not confirm."""
        ref, errors = self.ref, []
        for kind, table, premises, conclusion, witness in self.witnesses or ():
            top = (1 << len(table)) - 1
            if kind == "falsifies in frame":
                ok = ref.eval_in_frame(table, witness, premises[0]) != top
            else:
                values = [ref.eval_in_algebra(table, witness, p) for p in premises]
                if kind == "falsifies in algebra":
                    ok = values[0] != top
                else:
                    ok = all(v == top for v in values) and (
                        conclusion is None
                        or ref.eval_in_algebra(table, witness, conclusion) != top)
            if not ok:
                errors.append(f"{kind}: witness {witness} on {table} not confirmed")
                if len(errors) >= 20:
                    break
        return errors

    def metrics(self) -> dict:
        busy = sum(self.probes[f"semantics.{n}"].busy_s for n in SEARCHES)
        return {
            "semantics.busy_s": busy,
            "semantics.valuations": self.valuations,
            "frames.canonical_form_calls": self.probes["frames.canonical_form"].calls,
            "frames.enumerate_busy_s": self.probes["frames.enumerate_frames"].busy_s,
            "duality.iso_busy_s": self.probes["duality.algebras_isomorphic"].busy_s,
        }
