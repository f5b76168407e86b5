//! Cross-crate integration tests of the accelerator substrate: dataflow
//! engines, energy model, and the stack-distance analysis validated against
//! the cycle simulator.

use bootes::accel::{configs, simulate_inner, simulate_outer, simulate_spgemm, EnergyModel};
use bootes::core::{BootesConfig, SpectralReorderer};
use bootes::reorder::{b_reuse_profile_scheduled, Reorderer};
use bootes::sparse::ops::{block_spgemm, spgemm, BlockSparseMatrix};
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
fn tiled_kernel_agrees_with_row_wise_on_generated_workloads() {
    for seed in 0..3 {
        let a = rmat(
            &GenConfig::new(128, 128).seed(seed),
            6.0,
            (0.45, 0.2, 0.2, 0.15),
        )
        .unwrap();
        let blocked = BlockSparseMatrix::from_csr(&a, 16).unwrap();
        let tiled = block_spgemm(&blocked, &blocked).unwrap();
        let reference = spgemm(&a, &a, 1).unwrap();
        assert!(
            tiled.to_dense().max_abs_diff(&reference.to_dense()) < 1e-10,
            "seed {seed}"
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
