"""In-memory span recorder for the traced benchmark run.

The tracer rebinds public functions at the module attribute their caller
looks up (for example ``simulbench.model.attend_row``, which is what
``forward_incremental`` calls), records one span per call and restores the
originals on exit.  Spans stay in memory and are written out once, at the
end of the run.  Nothing inside ``simulbench`` changes.
"""

import array
import contextlib
import gzip
import time

import simulbench.data
import simulbench.engine
import simulbench.metrics
import simulbench.model
import simulbench.training


def _none(*args, **kwargs):
    return 0


def _len_arg(index):
    return lambda *args, **kwargs: len(args[index])


# (module, attribute, span name, work counter).  The module is the one whose
# code makes the call, so rebinding there catches every call on the measured
# paths.  Work counts: tokens ingested, rows recomputed, keys attended,
# tokens trained on.
SITES = (
    (simulbench.engine, "simul_generate", "engine.simul_generate", _none),
    (simulbench.engine, "forward_incremental", "model.forward_incremental",
     _len_arg(2)),
    (simulbench.engine, "forward_full", "model.forward_full", _len_arg(1)),
    (simulbench.engine, "realized_step_mask", "engine.realized_step_mask",
     _none),
    (simulbench.engine, "head_biases", "alibi.head_biases", _none),
    (simulbench.model, "attend_row", "kernel.attend_row",
     lambda q, keys, *rest, **kw: keys.shape[0]),
    (simulbench.model, "rank_biases", "alibi.rank_biases", _none),
    (simulbench.training, "fine_tune", "training.fine_tune", _none),
    (simulbench.training, "batch_forward_backward",
     "training.batch_forward_backward",
     lambda params, tokens, *rest, **kw: tokens.size),
    (simulbench.training, "clip_global_norm", "training.clip_global_norm",
     _none),
    (simulbench.training, "simul_mask", "masks.simul_mask", _none),
    (simulbench.training, "head_biases", "alibi.head_biases", _none),
    (simulbench.metrics, "flops_generate", "metrics.flops_generate", _none),
    (simulbench.data, "gen_synthetic", "data.gen_synthetic", _none),
)

SPAN_COLUMNS = ("span", "parent", "op", "name", "start_ns", "end_ns", "work")


class Tracer:
    """Collects spans as (span, parent, op, name, start_ns, end_ns, work).

    ``op`` is the id the benchmark assigns to the sentence-in-a-mode or
    fine_tune call in progress, so all spans of one op share it.  One caller,
    one thread: the open-span stack is the parent chain.  Spans are kept in
    integer columns (names and op ids as codes) because a compare_short run
    records hundreds of thousands of them.
    """

    def __init__(self):
        self.op = ""
        self._codes = {}
        self._labels = []
        self._cols = {c: array.array("q") for c in SPAN_COLUMNS[1:]}
        self._stack = []

    def __len__(self):
        return len(self._cols["parent"])

    def _code(self, label):
        code = self._codes.get(label)
        if code is None:
            code = self._codes[label] = len(self._labels)
            self._labels.append(label)
        return code

    def wrap(self, name, fn, work):
        name_code = self._code(name)
        cols = self._cols
        parent_col, start_col, end_col = (cols["parent"], cols["start_ns"],
                                          cols["end_ns"])

        def traced(*args, **kwargs):
            sid = len(parent_col)
            parent_col.append(self._stack[-1] if self._stack else -1)
            cols["op"].append(self._code(self.op))
            cols["name"].append(name_code)
            cols["work"].append(0)
            end_col.append(0)
            self._stack.append(sid)
            start_col.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end_col[sid] = time.perf_counter_ns()
                self._stack.pop()
                cols["work"][sid] = work(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Rebind every site in SITES to a recording wrapper, then restore."""
        originals = [(module, attr, getattr(module, attr))
                     for module, attr, _, _ in SITES]
        try:
            for module, attr, name, work in SITES:
                setattr(module, attr, self.wrap(name, getattr(module, attr),
                                                work))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def _rows(self, op_prefix):
        """(sid, name, duration_ns, work) of spans whose op id starts with
        ``op_prefix``."""
        cols = self._cols
        keep = [label.startswith(op_prefix) for label in self._labels]
        for sid, (op, name, start, end, work) in enumerate(zip(
                cols["op"], cols["name"], cols["start_ns"], cols["end_ns"],
                cols["work"])):
            if keep[op]:
                yield sid, self._labels[name], end - start, work

    def totals(self, op_prefix):
        """{name: [calls, work, total_ns, self_ns]} over spans whose op id
        starts with ``op_prefix``.  Self time is a span's duration minus the
        durations of its direct children; calls nest strictly, so children
        never overlap."""
        cols = self._cols
        child_ns = [0] * len(self)
        for parent, start, end in zip(cols["parent"], cols["start_ns"],
                                      cols["end_ns"]):
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for sid, name, ns, work in self._rows(op_prefix):
            row = out.setdefault(name, [0, 0, 0, 0])
            row[0] += 1
            row[1] += work
            row[2] += ns
            row[3] += ns - child_ns[sid]
        return out

    def durations_ms(self, name, op_prefix):
        return [ns / 1e6 for _, n, ns, _ in self._rows(op_prefix) if n == name]

    def write_csv(self, path):
        """All spans as gzip-compressed CSV, one row per span."""
        cols = self._cols
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(",".join(SPAN_COLUMNS) + "\n")
            for sid, (parent, op, name, start, end, work) in enumerate(
                    zip(*cols.values())):
                fh.write(f"{sid},{parent},{self._labels[op]},"
                         f"{self._labels[name]},{start},{end},{work}\n")
