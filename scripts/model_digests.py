"""Print a digest line for every seed-0 benchmark model.

For each family x variant x SIZE_GRID size, the model is trained at seed 0
on the desk-scale benchmark bundle with the family's overlaps, exactly as
the size sweep trains it. Each line holds a hash of the trained numbers
(branch and trunk centers and spreads, weights, calibration and training
residual), the model's config_hash and the SHA-256 of its saved file.
Two commits train bit-identical models when their outputs are equal:

    python3 scripts/model_digests.py > before.txt
    (switch commits)
    python3 scripts/model_digests.py > after.txt
    diff before.txt after.txt

Run from the repository root; it takes a few minutes on two cores.
"""

import hashlib
import io
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from rbon.benchmarks import build_benchmark_bundle  # noqa: E402
from rbon.harness import FAMILIES, FAMILY_OVERLAPS, SIZE_GRID, desk_config  # noqa: E402
from rbon.model import VARIANTS, ModelConfig, save_model, train  # noqa: E402

SEED = 0


def numbers_digest(model) -> str:
    """Hash of every trained number, with each array's dtype and shape."""
    digest = hashlib.sha256()
    for array in (
        model.branch_layer.centers,
        model.branch_layer.spreads,
        model.trunk_layer.centers,
        model.trunk_layer.spreads,
        model.weights,
        np.array([model.calibration.scale, model.calibration.offset, model.training_residual]),
    ):
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def file_digest(model) -> str:
    buffer = io.BytesIO()
    save_model(model, buffer)
    return hashlib.sha256(buffer.getvalue()).hexdigest()


def main() -> int:
    for family in FAMILIES:
        bundle = build_benchmark_bundle(desk_config(family), SEED)
        branch_overlap, trunk_overlap = FAMILY_OVERLAPS[family]
        for variant in VARIANTS:
            for branch_units, trunk_units in SIZE_GRID:
                config = ModelConfig(
                    variant=variant,
                    branch_units=branch_units,
                    trunk_units=trunk_units,
                    branch_overlap=branch_overlap,
                    trunk_overlap=trunk_overlap,
                    seed=SEED,
                )
                model = train(bundle.train, config)
                print(
                    f"{family} {variant} {branch_units}x{trunk_units} "
                    f"numbers={numbers_digest(model)} config={model.config_hash} "
                    f"file={file_digest(model)}",
                    flush=True,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
