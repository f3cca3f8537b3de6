"""Table I workload registry: the seven evaluated network/task pairs.

Each :class:`WorkloadSpec` captures the structural parameters that drive
both cost modelling and functional runs: per-stage sampling ratios, group
sizes, radii, and MLP widths (taken from the released PointNet++ /
PointNeXt-S / PointVector-L configurations).  ``concrete(n)`` instantiates
the spec at an input scale, yielding per-stage point counts the runtime
compiler (:mod:`repro.runtime.compiler`) lowers into hardware operations.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SAConfig",
    "FPConfig",
    "WorkloadSpec",
    "ConcreteStage",
    "WORKLOADS",
    "get_workload",
]


@dataclass(frozen=True)
class SAConfig:
    """One set-abstraction stage.

    Attributes:
        ratio: downsampling ratio (``n_out = n_in // ratio``).
        k: neighbours per group (ball-query group size).
        radius: grouping radius in normalised units.
        mlp: shared-MLP widths applied to each grouped point.
    """

    ratio: int
    k: int
    radius: float
    mlp: tuple[int, ...]


@dataclass(frozen=True)
class FPConfig:
    """One feature-propagation stage (3-NN interpolation + MLP)."""

    mlp: tuple[int, ...]
    k: int = 3


@dataclass(frozen=True)
class WorkloadSpec:
    """A Table I row: network x task x dataset.

    Attributes:
        key: the paper's notation (e.g. ``PNXt(s)``).
        model: backbone family (pointnet2 | pointnext | pointvector).
        task: cls | partseg | seg.
        dataset: benchmark the paper pairs it with.
        in_channels: input feature width entering stage 1 (stem output
            or raw features).
        sa_stages / fp_stages: the stage pipeline.
        global_mlp: classification-only whole-cloud MLP widths.
        head: final MLP widths (ending in num_classes).
        num_classes: output classes.
    """

    key: str
    model: str
    task: str
    dataset: str
    in_channels: int
    sa_stages: tuple[SAConfig, ...]
    fp_stages: tuple[FPConfig, ...] = ()
    global_mlp: tuple[int, ...] = ()
    head: tuple[int, ...] = ()
    num_classes: int = 13

    def min_points(self) -> int:
        """Smallest input that keeps every stage non-empty."""
        prod = 1
        for sa in self.sa_stages:
            prod *= sa.ratio
        return prod


@dataclass
class ConcreteStage:
    """One stage instantiated at a specific input scale."""

    kind: str  # "sa" | "fp" | "global" | "head"
    n_in: int
    n_out: int
    k: int = 0
    radius: float = 0.0
    mlp: tuple[int, ...] = ()
    in_channels: int = 0


def _chain(spec: WorkloadSpec, n: int) -> list[ConcreteStage]:
    """Instantiate the stage pipeline at input size ``n``."""
    stages: list[ConcreteStage] = []
    counts = [n]
    ch = spec.in_channels
    for sa in spec.sa_stages:
        n_in = counts[-1]
        n_out = max(n_in // sa.ratio, 1)
        stages.append(
            ConcreteStage(
                kind="sa", n_in=n_in, n_out=n_out, k=sa.k,
                radius=sa.radius, mlp=sa.mlp, in_channels=ch,
            )
        )
        counts.append(n_out)
        ch = sa.mlp[-1]
    if spec.task == "cls":
        stages.append(
            ConcreteStage(
                kind="global", n_in=counts[-1], n_out=1,
                mlp=spec.global_mlp, in_channels=ch,
            )
        )
        ch = spec.global_mlp[-1]
        stages.append(
            ConcreteStage(kind="head", n_in=1, n_out=1, mlp=spec.head, in_channels=ch)
        )
    else:
        # FP stages walk back up the SA pyramid.
        skip_channels = [spec.in_channels] + [sa.mlp[-1] for sa in spec.sa_stages[:-1]]
        for depth, fp in enumerate(spec.fp_stages):
            level = len(spec.sa_stages) - 1 - depth  # dense level index
            stages.append(
                ConcreteStage(
                    kind="fp", n_in=counts[level + 1], n_out=counts[level],
                    k=fp.k, mlp=fp.mlp,
                    in_channels=ch + skip_channels[level],
                )
            )
            ch = fp.mlp[-1]
        stages.append(
            ConcreteStage(kind="head", n_in=counts[0], n_out=counts[0],
                          mlp=spec.head, in_channels=ch)
        )
    return stages


WorkloadSpec.concrete = _chain  # type: ignore[attr-defined]


WORKLOADS: dict[str, WorkloadSpec] = {
    "PN++(c)": WorkloadSpec(
        key="PN++(c)", model="pointnet2", task="cls", dataset="modelnet40",
        in_channels=0,
        sa_stages=(
            SAConfig(2, 32, 0.2, (64, 64, 128)),
            SAConfig(4, 64, 0.4, (128, 128, 256)),
        ),
        global_mlp=(256, 512, 1024),
        head=(512, 256, 40),
        num_classes=40,
    ),
    "PNXt(c)": WorkloadSpec(
        key="PNXt(c)", model="pointnext", task="cls", dataset="modelnet40",
        in_channels=32,
        sa_stages=(
            SAConfig(2, 32, 0.15, (64, 64)),
            SAConfig(2, 32, 0.3, (128, 128)),
            SAConfig(2, 32, 0.6, (256, 256)),
        ),
        global_mlp=(512, 1024),
        head=(512, 256, 40),
        num_classes=40,
    ),
    "PN++(ps)": WorkloadSpec(
        key="PN++(ps)", model="pointnet2", task="partseg", dataset="shapenet",
        in_channels=0,
        sa_stages=(
            SAConfig(4, 32, 0.2, (64, 64, 128)),
            SAConfig(4, 64, 0.4, (128, 128, 256)),
        ),
        fp_stages=(
            FPConfig((256, 128)),
            FPConfig((128, 128, 128)),
        ),
        head=(128, 50),
        num_classes=50,
    ),
    "PNXt(ps)": WorkloadSpec(
        key="PNXt(ps)", model="pointnext", task="partseg", dataset="shapenet",
        in_channels=32,
        sa_stages=(
            SAConfig(4, 32, 0.15, (64, 64)),
            SAConfig(4, 32, 0.3, (128, 128)),
        ),
        fp_stages=(
            FPConfig((128, 128)),
            FPConfig((64, 64)),
        ),
        head=(64, 50),
        num_classes=50,
    ),
    "PN++(s)": WorkloadSpec(
        key="PN++(s)", model="pointnet2", task="seg", dataset="s3dis",
        in_channels=0,
        sa_stages=(
            SAConfig(4, 32, 0.1, (32, 32, 64)),
            SAConfig(4, 32, 0.2, (64, 64, 128)),
            SAConfig(4, 32, 0.4, (128, 128, 256)),
            SAConfig(4, 32, 0.8, (256, 256, 512)),
        ),
        fp_stages=(
            FPConfig((256, 256)),
            FPConfig((256, 256)),
            FPConfig((256, 128)),
            FPConfig((128, 128, 128)),
        ),
        head=(128, 13),
        num_classes=13,
    ),
    "PNXt(s)": WorkloadSpec(
        key="PNXt(s)", model="pointnext", task="seg", dataset="s3dis",
        in_channels=32,
        sa_stages=(
            SAConfig(4, 32, 0.1, (64, 64)),
            SAConfig(4, 32, 0.2, (128, 128)),
            SAConfig(4, 32, 0.4, (256, 256)),
            SAConfig(4, 32, 0.8, (512, 512)),
        ),
        fp_stages=(
            FPConfig((256, 256)),
            FPConfig((128, 128)),
            FPConfig((64, 64)),
            FPConfig((64, 64)),
        ),
        head=(64, 13),
        num_classes=13,
    ),
    "PVr(s)": WorkloadSpec(
        key="PVr(s)", model="pointvector", task="seg", dataset="s3dis",
        in_channels=64,
        sa_stages=(
            SAConfig(4, 32, 0.1, (96, 96)),
            SAConfig(4, 32, 0.2, (192, 192)),
            SAConfig(4, 32, 0.4, (384, 384)),
            SAConfig(4, 32, 0.8, (512, 512)),
        ),
        fp_stages=(
            FPConfig((384, 384)),
            FPConfig((256, 256)),
            FPConfig((128, 128)),
            FPConfig((128, 128)),
        ),
        head=(128, 13),
        num_classes=13,
    ),
}


def get_workload(key: str) -> WorkloadSpec:
    """Lookup by the paper's notation (e.g. ``"PNXt(s)"``)."""
    if key not in WORKLOADS:
        raise ValueError(f"unknown workload {key!r}; expected one of {list(WORKLOADS)}")
    return WORKLOADS[key]
