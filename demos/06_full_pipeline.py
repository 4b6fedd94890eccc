"""The whole pipeline on the bundled three-language fixture.

extract (with stats.tsv) -> sample -> preprocess -> learn-bpe -> apply-bpe -> tag,
driven by one JSON config that names one output root, ``out_dir``: the run
writes ``mined/``, ``sampled/`` and ``prep/`` under it. Rerunning produces a
byte-identical tree.
"""

import json
import shutil
import tempfile
from pathlib import Path

from multibridge import load_config, run_pipeline

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "data" / "pipeline_fixture"

with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp) / "run"
    shutil.copytree(FIXTURE, work)
    # The fixture still names the three stage directories, the older form of
    # one output root; this copy names the root itself.
    config = json.loads((work / "config.json").read_text())
    for key in ("mined_dir", "sampled_dir", "preprocessed_dir"):
        del config[key]
    config["out_dir"] = "out"
    (work / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    print("config:", (work / "config.json").read_text())

    report = run_pipeline(load_config(work / "config.json"))

    print("stage summary:")
    for stage, info in report.stages.items():
        print(f"  {stage}: {info}")

    print("\nstatistics table:")
    print((work / "out" / "mined" / "stats.tsv").read_text())

    print("manifest entries:")
    for entry in report.manifest.entries:
        print(f"  {entry.direction.label():>6}  {entry.count:>3} pairs  [{entry.strategy}]")

    final = work / "out" / "prep" / "final"
    sample_file = sorted(final.glob("*.src"))[0]
    print(f"\nfirst two lines of {sample_file.name} (tagged, BPE-segmented, Devanagari-unified):")
    for line in sample_file.read_text().splitlines()[:2]:
        print("   ", line)
