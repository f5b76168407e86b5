//! Cross-crate integration tests of the accelerator substrate: dataflow
//! engines, energy model, and the stack-distance analysis validated against
//! the cycle simulator.

mod common;

use bootes::accel::{configs, simulate_inner, simulate_outer, simulate_spgemm, EnergyModel};
use bootes::core::{BootesConfig, SpectralReorderer};
use bootes::reorder::{b_reuse_profile_scheduled, Reorderer};
use bootes::workloads::gen::{clustered_with_density, rmat, uniform_random, GenConfig};

#[test]
fn row_wise_beats_other_dataflows_on_sparse_inputs() {
    let a = uniform_random(&GenConfig::new(200, 200).seed(1), 0.02).unwrap();
    let cfg = {
        let mut c = configs::flexagon();
        c.cache_bytes = 8 << 10;
        c
    };
    let inner = simulate_inner(&a, &a, &cfg).unwrap();
    let outer = simulate_outer(&a, &a, &cfg).unwrap();
    let row = simulate_spgemm(&a, &a, &cfg).unwrap();
    assert!(row.total_bytes() < inner.total_bytes());
    assert!(row.total_bytes() < outer.total_bytes());
    // Table 1: B over-fetch is inner's weakness, psum spill is outer's.
    assert!(inner.b_bytes > row.b_bytes);
    assert!(outer.c_bytes > row.c_bytes);
}

#[test]
fn energy_improvement_tracks_traffic_improvement() {
    let a = clustered_with_density(&GenConfig::new(600, 600).seed(2), 8, 0.93, 0.02).unwrap();
    let mut accel = configs::flexagon();
    accel.cache_bytes = 8 << 10;
    let before = simulate_spgemm(&a, &a, &accel).unwrap();
    let reordered = SpectralReorderer::new(BootesConfig::default().with_k(8))
        .reorder(&a)
        .unwrap()
        .permutation
        .apply_rows(&a)
        .unwrap();
    let after = simulate_spgemm(&reordered, &a, &accel).unwrap();
    let model = EnergyModel::default();
    let e_before = model.energy(&before, accel.line_bytes);
    let e_after = model.energy(&after, accel.line_bytes);
    assert!(e_after.total_pj() < e_before.total_pj());
    // Compute energy is order-invariant.
    assert_eq!(e_after.compute_pj, e_before.compute_pj);
    // DRAM dominates in both cases (the paper's §5.2 premise).
    assert!(e_before.dram_fraction() > 0.5);
}

#[test]
fn stack_distance_prediction_tracks_simulator_across_orderings() {
    let a = clustered_with_density(&GenConfig::new(800, 800).seed(3), 8, 0.92, 0.015).unwrap();
    let mut accel = configs::flexagon();
    accel.cache_bytes = 16 << 10;
    let row_bytes = (a.nnz() as f64 / a.nrows() as f64) * accel.elem_bytes as f64;
    let capacity = (accel.cache_bytes as f64 / row_bytes) as usize;
    for algo in [
        Box::new(bootes::reorder::OriginalOrder) as Box<dyn Reorderer>,
        Box::new(SpectralReorderer::new(BootesConfig::default().with_k(8))),
    ] {
        let m = algo
            .reorder(&a)
            .unwrap()
            .permutation
            .apply_rows(&a)
            .unwrap();
        let predicted = b_reuse_profile_scheduled(&m, accel.num_pes).hit_rate_at(capacity.max(1));
        let simulated = simulate_spgemm(&m, &a, &accel).unwrap().hit_rate();
        assert!(
            (predicted - simulated).abs() < 0.15,
            "{}: predicted {predicted:.2} vs simulated {simulated:.2}",
            algo.name()
        );
    }
}

#[test]
fn rmat_graphs_flow_through_the_full_pipeline() {
    let a = rmat(
        &GenConfig::new(300, 300).seed(9),
        8.0,
        (0.57, 0.19, 0.19, 0.05),
    )
    .unwrap();
    let out = SpectralReorderer::new(BootesConfig::default().with_k(4))
        .reorder(&a)
        .unwrap();
    let m = out.permutation.apply_rows(&a).unwrap();
    let rep = simulate_spgemm(&m, &a, &configs::gamma()).unwrap();
    assert!(rep.total_bytes() > 0);
    assert_eq!(rep.macs, bootes::sparse::ops::spgemm_flops(&m, &a).unwrap());
}

// ---------------------------------------------------------------------------
// Golden snapshot of the row-wise simulator: every `TrafficReport` field, one
// JSON line per (input, config, row order). Inputs are the checked-in
// fixtures, four Table-3 stand-ins at scale 0.02 (two rectangular) and one
// synthetic operand whose B rows span more cache lines than the scaled
// configs have sets, so one row's line range wraps onto a set twice. Configs
// are the scaled evaluation presets and the three full-size ones. Any change
// to the cache model, the PE schedule or the nnz(C) count shows up as a diff
// against tests/fixtures/simulate.golden. Regenerate deliberately with
// BOOTES_BLESS=1.
// ---------------------------------------------------------------------------

mod golden {
    use crate::common::assert_golden;
    use bootes::accel::{configs, simulate_spgemm, AcceleratorConfig};
    use bootes::sparse::io::read_matrix_market;
    use bootes::sparse::{CooMatrix, CsrMatrix};
    use bootes::workloads::scramble_rows;
    use bootes::workloads::suite::table3_suite;
    use serde::Serialize as _;
    use std::path::PathBuf;

    /// The repository's evaluation scale (`bootes_bench::suite_scale`).
    const SCALE: f64 = 0.02;

    fn fixture_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
    }

    /// `A · A` for square `A`, `A · Aᵀ` otherwise (`bootes_bench::b_operand`).
    fn b_operand(a: &CsrMatrix) -> CsrMatrix {
        if a.nrows() == a.ncols() {
            a.clone()
        } else {
            a.transpose()
        }
    }

    /// The presets with caches scaled as `bootes_bench::scaled_configs`
    /// does, labelled with their scale, then the full-size presets.
    fn golden_configs() -> Vec<(String, AcceleratorConfig)> {
        let scaled = configs::all().into_iter().map(|mut c| {
            c.cache_bytes = ((c.cache_bytes as f64 * SCALE) as usize).max(4096);
            (format!("{}@{SCALE}", c.name), c)
        });
        let full = configs::all()
            .into_iter()
            .map(|c| (format!("{}@1", c.name), c));
        scaled.chain(full).collect()
    }

    /// A 160 × 40 `A` over a 40 × 1600 `B` whose rows hold 250 to 1420
    /// nonzeros: the even rows contiguous runs, the odd rows runs of stride
    /// 3 or 7 (coprime to 1600, so no column repeats). At 12 bytes per
    /// nonzero every row spans 47 to 267 lines, more than the 40 sets of the
    /// scaled Flexagon and, from row 21 on, the 163 of the scaled Trapezoid.
    fn wide_rows() -> (CsrMatrix, CsrMatrix) {
        let (k, n) = (40, 1600);
        let mut b = CooMatrix::new(k, n);
        for r in 0..k {
            let nnz = 250 + 30 * r;
            let stride = [1, 3, 1, 7][r % 4];
            for t in 0..nnz {
                b.push(r, (7 * r + t * stride) % n, 1.0).unwrap();
            }
        }
        let mut a = CooMatrix::new(160, k);
        let mut state = 0x51A7u64;
        for r in 0..160 {
            for _ in 0..3 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                a.push(r, ((state >> 33) % k as u64) as usize, 1.0).ok();
            }
        }
        (a.to_csr(), b.to_csr())
    }

    fn inputs() -> Vec<(String, CsrMatrix, CsrMatrix)> {
        let mut out = Vec::new();
        for name in ["banded_64", "clustered_96", "dense_16"] {
            let path = fixture_dir().join(format!("{name}.mtx"));
            let file = std::fs::File::open(&path)
                .unwrap_or_else(|e| panic!("open fixture {}: {e}", path.display()));
            let a = read_matrix_market(std::io::BufReader::new(file)).expect("valid fixture");
            let b = b_operand(&a);
            out.push((name.to_string(), a, b));
        }
        for entry in table3_suite() {
            if ["Oregon-1", "fome20", "mri2", "sme3Da"].contains(&entry.name) {
                let a = entry.generate(SCALE).expect("suite entry generates");
                let b = b_operand(&a);
                out.push((entry.name.to_string(), a, b));
            }
        }
        let (a, b) = wide_rows();
        out.push(("wide_rows".to_string(), a, b));
        out
    }

    fn snapshot() -> String {
        let configs = golden_configs();
        let mut lines = Vec::new();
        for (input, a, b) in inputs() {
            let orders = [
                ("original", a.clone()),
                ("scrambled", scramble_rows(&a, 0x5C)),
            ];
            for (label, cfg) in &configs {
                for (order, a) in &orders {
                    let report = simulate_spgemm(a, &b, cfg).expect("valid operands");
                    let value = serde::Value::Object(vec![
                        ("input".to_string(), serde::Value::Str(input.clone())),
                        ("config".to_string(), serde::Value::Str(label.clone())),
                        ("order".to_string(), serde::Value::Str(order.to_string())),
                        ("report".to_string(), report.serialize()),
                    ]);
                    lines.push(serde_json::to_string(&value).expect("report serializes"));
                }
            }
        }
        lines.join("\n")
    }

    #[test]
    fn golden_simulate_reports() {
        assert_golden("simulate.golden", &snapshot());
    }
}
