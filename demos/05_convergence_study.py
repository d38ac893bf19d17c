"""Running a convergence study and exporting its artifacts.

A study solves the same problem over a ladder of refinements for each
requested degree, measures the relative gradient error, and reports the
incremental convergence rates.  With an output directory it also writes a
CSV of the records plus gnuplot-ready data files.  The same machinery is
available from the command line as `hhonl study`.
"""

import tempfile
from pathlib import Path

from hhonl.harness import StudyConfig, format_table, read_csv, run_study

with tempfile.TemporaryDirectory(prefix="hho-study-") as tmp:
    out = Path(tmp)
    config = StudyConfig(family="cartesian", levels=[4, 8, 16, 32],
                         degrees=[1, 2], out_dir=out)
    result = run_study(config)

    print(format_table(result.records))
    print(f"\nelapsed: {result.elapsed:.1f}s")

    # Everything the table shows is persisted for post-processing.
    print(f"\nartifacts in {out}:")
    for path in sorted(out.iterdir()):
        print(f"  {path.name}")

    # The CSV round-trips through the reader, so downstream scripts can
    # reload a finished study without rerunning it.
    records = read_csv(result.csv_path)

finest = [r for r in records if r.k == 2][-1]
print(f"\nfinest k=2 record from CSV: h = {finest.h:.4e}, "
      f"error = {finest.error:.4e}, rate = {finest.rate:.3f}")

# Expected picture: errors fall by ~2^(k+1) per refinement, so the rate
# column sits near 2 for k=1 and near 3 for k=2.
