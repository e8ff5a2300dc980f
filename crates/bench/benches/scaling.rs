//! Experiment Q3 bench — exploration scaling with model size (threads in the
//! AADL model).

use aadl2acsr::{analyze, AnalysisOptions, TranslateOptions};
use bench::harmonic_system;
use bench::timing::Runner;

fn bench_model_size(r: &mut Runner) {
    for n in [2usize, 3, 4, 5] {
        let m = harmonic_system(n, 4, 0.15);
        r.bench_with_param("scaling_threads_in_model", n, || {
            analyze(
                &m,
                &TranslateOptions::default(),
                &AnalysisOptions::default(),
            )
            .unwrap()
        });
    }
}

fn main() {
    let mut r = Runner::from_args();
    bench_model_size(&mut r);
}
