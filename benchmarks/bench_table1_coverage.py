"""Experiment E1 -- Table I: likelihood-weighted defect coverage with SymBIST.

Regenerates the per-block and whole-IP rows of Table I of the paper: number of
defects, number of defects simulated, (modelled) defect-simulation time, and
the L-W defect coverage with its 95 % confidence interval where LWRS sampling
is used.  Small blocks are simulated exhaustively (like the paper, where
``#defects == #defects simulated`` for them); large blocks and the whole-IP
row use LWRS.

Paper reference values (65 nm IP + SPICE-level DefectSim):

    bandgap 94.22 %, reference buffer 1 %, SUBDAC1 80.58 +/- 6.68 %,
    SUBDAC2 84.22 +/- 5.89 %, SC array 97.7 %, Vcm generator 30.88 %,
    pre-amplifier 94.12 %, comparator latch 87.79 %, RS latch 68.09 %,
    offset compensation 15.15 %, complete A/M-S part 86.96 +/- 3.67 %.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adc import SarAdc
from repro.core import format_confidence, format_table
from repro.defects import DefectCampaign, SamplingPlan

#: Seed of the campaign's LWRS draws (fixed for reproducibility).
BENCHMARK_SEED = 20200309

#: Paper Table I coverage values, for side-by-side reporting.
PAPER_TABLE1 = {
    "bandgap": "94.22%",
    "reference_buffer": "1%",
    "subdac1": "80.58% +/- 6.68%",
    "subdac2": "84.22% +/- 5.89%",
    "sc_array": "97.7%",
    "vcm_generator": "30.88%",
    "preamplifier": "94.12%",
    "comparator_latch": "87.79%",
    "rs_latch": "68.09%",
    "offset_compensation": "15.15%",
    "complete_ams_part": "86.96% +/- 3.67%",
}

#: LWRS sample budget per large block and for the whole-IP row (the paper
#: simulated 101 defects for the whole A/M-S part).
SAMPLES_PER_BLOCK = 80
WHOLE_IP_SAMPLES = 250
EXHAUSTIVE_THRESHOLD = 120


def _run_table1(deltas):
    campaign = DefectCampaign(adc=SarAdc(), deltas=deltas,
                              stop_on_detection=True)
    # One plain loop spans the whole per-block sweep; per-block LWRS draws
    # derive from the seed + block path, so the rows do not depend on block
    # order (and the whole-IP row below gets its own independent stream).
    per_block = campaign.run_per_block(n_samples_per_block=SAMPLES_PER_BLOCK,
                                       seed=BENCHMARK_SEED,
                                       exhaustive_threshold=EXHAUSTIVE_THRESHOLD)
    whole_ip = campaign.run(SamplingPlan(exhaustive=False,
                                         n_samples=WHOLE_IP_SAMPLES),
                            rng=np.random.default_rng(BENCHMARK_SEED))
    return campaign, per_block, whole_ip


def _render_table(campaign, per_block, whole_ip) -> str:
    rows = []
    for block, result in per_block.items():
        report = result.overall_report()
        rows.append([block, report.n_defects, report.n_simulated,
                     f"{report.modeled_sim_time:.0f}",
                     format_confidence(report.coverage.value,
                                       report.coverage.ci_half_width),
                     PAPER_TABLE1[block]])
    overall = whole_ip.overall_report()
    rows.append(["complete_ams_part", len(campaign.universe),
                 overall.n_simulated, f"{overall.modeled_sim_time:.0f}",
                 format_confidence(overall.coverage.value,
                                   overall.coverage.ci_half_width),
                 PAPER_TABLE1["complete_ams_part"]])
    return format_table(
        ["A/M-S block", "#defects", "#simulated", "model sim time (s)",
         "L-W coverage (this repro)", "L-W coverage (paper)"],
        rows, title="Table I -- L-W defect coverage results with SymBIST")


def test_table1_coverage(benchmark, deltas):
    """Regenerate Table I and check its qualitative shape."""
    campaign, per_block, whole_ip = benchmark.pedantic(
        _run_table1, args=(deltas,), rounds=1, iterations=1)

    print()
    print(_render_table(campaign, per_block, whole_ip))

    coverage = {block: result.overall_report().coverage.value
                for block, result in per_block.items()}
    overall = whole_ip.overall_report().coverage.value

    # Shape checks mirroring the paper's findings.
    assert coverage["sc_array"] > 0.9                       # ~98 % in the paper
    assert coverage["bandgap"] > 0.7                        # ~94 % in the paper
    assert coverage["reference_buffer"] < 0.2               # ~1 % in the paper
    assert coverage["offset_compensation"] < 0.4            # ~15 % in the paper
    assert 0.5 < coverage["subdac1"] <= 1.0                 # ~81 % in the paper
    assert 0.5 < coverage["subdac2"] <= 1.0                 # ~84 % in the paper
    assert overall > 0.65                                   # ~87 % in the paper
    # The low-L-W blocks must rank below the well-observed blocks.
    assert max(coverage["reference_buffer"], coverage["offset_compensation"]) \
        < min(coverage["sc_array"], coverage["bandgap"])
