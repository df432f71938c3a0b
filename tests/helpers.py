"""Importable test helpers (kept out of conftest.py on purpose).

Importing from ``conftest`` resolves whichever conftest.py happens to
be first on ``sys.path`` -- historically this suite imported
``benchmarks/conftest.py`` by accident and failed to collect.  Shared
constructors therefore live here, where the module name is unambiguous
(``tests`` is on pytest's ``pythonpath``, see pyproject.toml).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.eval.store import ResultStore, case_key
from repro.eval.sweeps import SweepCase, SweepResult
from repro.workloads.dnn import DNNModel
from repro.workloads.layers import LayerGraphBuilder


def make_toy_model(name: str = "toy", blocks: int = 2) -> DNNModel:
    """A small residual CNN sized to span ~5 chiplets (2M weights each)."""
    b = LayerGraphBuilder(name, (3, 16, 16))
    x = b.add_conv(b.input_index, 64, kernel=3, padding=1, name="stem")
    for i in range(blocks):
        y = b.add_conv(x, 64, kernel=3, padding=1, name=f"b{i}/c1")
        y = b.add_conv(y, 64, kernel=3, padding=1, name=f"b{i}/c2")
        x = b.add_add([x, y], name=f"b{i}/add")
    x = b.add_flatten(x, name="flatten")
    x = b.add_fc(x, 512, name="fc1")
    x = b.add_fc(x, 10, name="fc2")
    return DNNModel(name, "toy", b.build())


#: Store lines that are valid JSON of the current schema version with a
#: key, but not well-formed records: shape name -> how a good record
#: dict is spoiled into it.
MALFORMED_RECORDS = {
    "no-case": lambda r: r.pop("case"),
    "case-not-object": lambda r: r.update(case="kite/16"),
    "no-arch": lambda r: r["case"].pop("arch"),
    "no-overrides": lambda r: r["case"].pop("noi_overrides"),
    "axis-not-scalar": lambda r: r["case"].update(workload=["uniform"]),
    "overrides-not-a-list": lambda r: r["case"].update(noi_overrides=64),
    "override-not-a-pair": lambda r: r["case"].update(
        noi_overrides=[["flit_bytes"]]),
    "override-value-object": lambda r: r["case"].update(
        noi_overrides=[["flit_bytes", {"bytes": 64}]]),
    "no-elapsed": lambda r: r.pop("elapsed_s"),
    "elapsed-not-number": lambda r: r.update(elapsed_s="0.5"),
    "elapsed-past-float": lambda r: r.update(elapsed_s=10 ** 400),
    "metrics-not-object": lambda r: r.update(metrics=[1.0]),
    "key-not-str": lambda r: r.update(k=7),
}


def malformed_store(root: Path, shape: str, fingerprint: str):
    """A store at ``root`` whose one shard holds two good records around
    one record spoiled as ``MALFORMED_RECORDS[shape]``.

    All three are ``kite``/16 cases with a ``flit_bytes=64`` override
    and a ``value`` metric.  Returns ``(good cases, their keys, the
    spoiled record's key)``.
    """
    cases = [SweepCase(arch="kite", num_chiplets=16, seed=seed,
                       noi_overrides=(("flit_bytes", 64),))
             for seed in range(3)]
    keys = ["ab" + case_key(case, fingerprint)[2:] for case in cases]
    writer = ResultStore(root)
    for key, case in zip(keys, cases):
        writer.put(key, SweepResult(case=case, elapsed_s=0.5,
                                    metrics={"value": float(case.seed)}))
    shard = root / "shard-ab.jsonl"
    lines = shard.read_bytes().splitlines()
    record = json.loads(lines[1])
    MALFORMED_RECORDS[shape](record)
    lines[1] = json.dumps(record).encode()
    shard.write_bytes(b"\n".join(lines) + b"\n")
    return [cases[0], cases[2]], [keys[0], keys[2]], keys[1]
