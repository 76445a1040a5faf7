"""Pure helpers of `run.py`: statistics, the reference check of
emitted tables, the paper-gap metric and the source fingerprint. Nothing here
starts a process; `run.py` does that."""

import csv
import hashlib
import os
import statistics

# Paper values the Figure 2 and Figure 9 tables can be held against when a
# workload does not emit the `summary` table: (experiment, row label,
# column, paper AVG misprediction in percent), from the paper's text.
FIGURE_ANCHORS = [
    ("fig2", "AVG", "BTB", 28.1),
    ("fig2", "AVG", "BTB-2bc", 24.9),
    ("fig9", "0", "AVG", 24.9),
    ("fig9", "3", "AVG", 7.8),
    ("fig9", "6", "AVG", 5.8),
]

# Checked-in tables that no experiment emits any more. Any other reference
# table of an experiment that ran but was not emitted is a mismatch.
KNOWN_ORPHANS = frozenset({
    "ablations/01_3_3__history_element_variations__p_8__unconstrained.csv",
})


def spread(values):
    """Distance between the first and third quartile as a share of the
    median, as `statistics.quantiles(values, n=4)` gives the quartiles."""
    if len(values) < 2:
        return 0.0
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else float("inf")


def emitted_tables(root):
    """Relative paths (`<experiment>/<file>.csv`) of every table CSV under a
    results root, skipping the caches and the runtime manifest."""
    found = []
    for entry in sorted(os.listdir(root)):
        path = os.path.join(root, entry)
        if entry.startswith(".") or not os.path.isdir(path):
            continue
        for name in sorted(os.listdir(path)):
            if name.endswith(".csv"):
                found.append(f"{entry}/{name}")
    return found


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def diff_against_tree(root, reference, experiments, known_orphans=KNOWN_ORPHANS):
    """Compares the tables emitted under `root` with the checked-in tree
    `reference`. Returns (checked, mismatched, orphans): the tables
    compared; those missing from or different in the reference, plus
    reference tables of the same experiments that were not emitted; and
    the reference tables in `known_orphans` that were not emitted."""
    tables = emitted_tables(root)
    mismatched = []
    for rel in tables:
        ref = os.path.join(reference, rel)
        if not os.path.isfile(ref) or sha256_file(ref) != sha256_file(os.path.join(root, rel)):
            mismatched.append(rel)
    orphans = []
    for exp in experiments:
        ref_dir = os.path.join(reference, exp)
        if not os.path.isdir(ref_dir):
            continue
        for rel in (f"{exp}/{n}" for n in sorted(os.listdir(ref_dir)) if n.endswith(".csv")):
            if rel not in tables:
                (orphans if rel in known_orphans else mismatched).append(rel)
    return tables, mismatched, orphans


def diff_against_digests(root, digests):
    """Compares the tables emitted under `root` with recorded SHA-256
    digests (`{relative path: digest}`). Returns (checked, mismatched,
    orphans) like `diff_against_tree`; a recorded table that was not
    emitted counts as mismatched."""
    tables = emitted_tables(root)
    mismatched = [rel for rel in tables
                  if digests.get(rel) != sha256_file(os.path.join(root, rel))]
    mismatched += [rel for rel in sorted(digests) if rel not in tables]
    return tables, mismatched, []


def table_digests(root):
    return {rel: sha256_file(os.path.join(root, rel)) for rel in emitted_tables(root)}


def read_table(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def paper_gap_pp(root):
    """Mean absolute gap, in percentage points, between the simulator's AVG
    misprediction and the paper's. Uses the `summary` table's measured and
    paper columns when it was emitted, else the Figure 2 and 9 anchors the
    emitted tables cover. None when no anchor was emitted."""
    summary = os.path.join(root, "summary")
    if os.path.isdir(summary):
        name = sorted(os.listdir(summary))[0]
        rows = read_table(os.path.join(summary, name))
        head = rows[0]
        m, p = head.index("measured"), head.index("paper")
        gaps = [abs(float(r[m]) - float(r[p])) for r in rows[1:]]
        return sum(gaps) / len(gaps)
    gaps = []
    for exp, label, column, paper in FIGURE_ANCHORS:
        folder = os.path.join(root, exp)
        if not os.path.isdir(folder):
            continue
        rows = read_table(os.path.join(folder, sorted(os.listdir(folder))[0]))
        col = rows[0].index(column)
        value = next(float(r[col]) for r in rows[1:] if r[0] == label)
        gaps.append(abs(value - paper))
    return sum(gaps) / len(gaps) if gaps else None


def source_fingerprint(repo):
    """SHA-256 over the simulator's sources and manifests, for records made
    where no git metadata exists."""
    h = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(repo, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith(".") and d != "target")
            paths += [os.path.relpath(os.path.join(dirpath, n), repo)
                      for n in sorted(filenames) if not n.endswith(".pyc")]
    for rel in paths:
        full = os.path.join(repo, rel)
        if os.path.isfile(full):
            h.update(rel.encode() + b"\0")
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()
