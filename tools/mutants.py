"""Mutation check: does the fast test suite kill each known mutant?

Run from the repository root:

    python tools/mutants.py

Each mutant is one textual replacement in one source file, a small
deliberate fault in an exactness invariant.  For each, the tool copies the
repository to a temporary directory, applies the replacement there (never
in the working tree) and runs ``pytest -m "not slow" -x -q`` on the copy.
A failing run kills the mutant; a passing run lets it survive.  First the
unmutated copy must pass, so that a broken environment cannot kill
everything.  Prints one line per mutant and exits 1 if any mutant survives
or if any replacement site is not found exactly once, so the check cannot
pass by applying nothing.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, file, original text, mutated text)
MUTANTS = (
    ("stale delta + 1", "src/simulbench/model.py",
     "ladder[:, arrival[:size] + (n - 1 - past - i)]",
     "ladder[:, arrival[:size] + (n - 2 - past - i)]"),
    ("moved cache block shifted one row short", "src/simulbench/model.py",
     "kv[:, :, :, lo + by:hi + by] = kv[:, :, :, lo:hi]",
     "kv[:, :, :, lo + by - 1:hi + by - 1] = kv[:, :, :, lo:hi]"),
    ("moved cache block shifts keys but not values",
     "src/simulbench/model.py",
     "kv[:, :, :, lo + by:hi + by] = kv[:, :, :, lo:hi]",
     "kv[:, 0, :, lo + by:hi + by] = kv[:, 0, :, lo:hi]"),
    ("new cache row written one slot past its canonical row",
     "src/simulbench/model.py",
     "np.array(rows, dtype=np.intp),",
     "np.array(rows, dtype=np.intp) + 1,"),
    ("failed engine call leaves the moved blocks moved",
     "src/simulbench/model.py",
     "kv[:, :, :, lo:hi] = kv[:, :, :, lo + by:hi + by]",
     "pass"),
    ("rank ladder sliced from its head instead of its tail",
     "src/simulbench/alibi.py",
     "return ladder[:, ladder.shape[1] - n_visible:]",
     "return ladder[:, :n_visible]"),
    ("GELU forward without its cubic factor", "src/simulbench/model.py",
     "    t *= cubic\n",
     ""),
    ("per-region counts not checked against the tokens",
     "src/simulbench/model.py",
     "or min(added) < 0 or sum(added) != m:",
     "or min(added) < 0:"),
    ("cache coherence checks the layer count only",
     "src/simulbench/model.py",
     """    if kv is not None and (*kv.shape[::2], kv.dtype) != (
            cfg.n_layers, cfg.n_heads, cfg.d_head, params.embed.dtype):
""",
     """    if kv is not None and kv.shape[0] != cfg.n_layers:
"""),
    ("new rows numbered one arrival late", "src/simulbench/model.py",
     "arrivals = [range(first, first + k)",
     "arrivals = [range(first + 1, first + k + 1)"),
    ("whole-count rule lets a bool through", "src/simulbench/masks.py",
     "    if not isinstance(value, bool):\n",
     "    if True:\n"),
    ("build_config truncates a float count", "src/simulbench/config.py",
     "            if isinstance(value, str):\n",
     "            if not isinstance(value, (list, tuple)):\n"),
    ("mid-prompt rows left unrestricted in simul_mask",
     "src/simulbench/masks.py",
     "frontier[:mid_len - 1] = reads[0]",
     "frontier[:mid_len - 1] = src"),
    ("LAAL tau test >= -> >", "src/simulbench/metrics.py",
     "if d_i >= source_len:",
     "if d_i > source_len:"),
    ("softmax normalizer by np.add.reduceat", "src/simulbench/kernel.py",
     """    sums = np.empty_like(peak)
    for r, (lo, hi) in enumerate(zip(starts, ends)):
        np.add.reduce(x[..., lo:hi], axis=-1, out=sums[..., r])
""",
     """    sums = np.add.reduceat(x, starts, axis=-1)
"""),
    ("recompute write charged without its own rows",
     "src/simulbench/metrics.py",
     """        done += cost
        costs.append(0 if isinstance(ev, ReadEvent) else done)
""",
     """        costs.append(0 if isinstance(ev, ReadEvent) else done)
        done += cost
"""),
    ("training biases ignore the kind", "src/simulbench/training.py",
     "head_biases(mask, alibi_slopes(H), kind)",
     "head_biases(mask, alibi_slopes(H), \"modified\")"),
    ("labels read from the loss rows themselves",
     "src/simulbench/training.py",
     "labels = tokens[:, loss_rows + 1]",
     "labels = tokens[:, loss_rows]"),
    ("flops-report recompute column charged as cached",
     "src/simulbench/experiment.py",
     "GenerationMode(\"recompute\")).recompute",
     "GenerationMode(\"cached\")).recompute"),
    ("sweep summary's mean LAAL over one sentence fewer",
     "src/simulbench/experiment.py",
     "sum(r.laal() for r in records) / len(records)",
     "sum(r.laal() for r in records[1:]) / len(records)"),
    ("one extra source pull at step 1", "src/simulbench/engine.py",
     "max(policy.cumulative_reads(t) - reads, 0)",
     "max(policy.cumulative_reads(t) - reads + (t == 1), 0)"),
    ("reads lag one step after step 1", "src/simulbench/engine.py",
     "max(policy.cumulative_reads(t) - reads, 0)",
     "max(policy.cumulative_reads(max(t - 1, 1)) - reads, 0)"),
)

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "out")


def run_suite(tree: str) -> int:
    """Return code of the fast test suite run on ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "not slow", "-x", "-q",
         "-p", "no:cacheprovider"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def fresh_copy(scratch: str) -> str:
    """A new copy of the repository under ``scratch``."""
    tree = os.path.join(scratch, "tree")
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return tree


def apply(tree: str, mutant) -> bool:
    """Apply ``mutant`` to ``tree``; False when its site is not found
    exactly once."""
    _, path, old, new = mutant
    target = os.path.join(tree, path)
    with open(target, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(old) != 1:
        return False
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))
    return True


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory() as scratch:
        if run_suite(fresh_copy(scratch)) != 0:
            print("baseline: the unmutated suite fails; nothing checked")
            return 1
        for mutant in MUTANTS:
            tree = fresh_copy(scratch)
            if not apply(tree, mutant):
                verdict, ok = "site not found", False
            elif run_suite(tree) != 0:
                verdict = "killed"
            else:
                verdict, ok = "survived", False
            print(f"{verdict}: {mutant[0]}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
