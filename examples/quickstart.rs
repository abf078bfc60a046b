//! Quickstart: the full GraLMatch workflow (paper Figure 1) in ~60 lines.
//!
//! Generate a small synthetic benchmark, fine-tune a pairwise matcher,
//! block candidates, predict, clean up the prediction graph, and print the
//! three-stage evaluation.
//!
//! Run with: `cargo run --example quickstart --release`

use gralmatch::core::{run_domain_with_matcher, CompanyDomain, PipelineConfig};
use gralmatch::datagen::{generate, GenerationConfig};
use gralmatch::lm::{train, ModelSpec};
use gralmatch::records::{DatasetSplit, SplitRatios};
use gralmatch::util::SplitRng;

fn main() {
    // 1. A small synthetic benchmark (500 company groups across 5 vendors).
    let mut config = GenerationConfig::synthetic_full();
    config.num_entities = 500;
    let data = generate(&config).expect("valid config");
    println!(
        "generated {} company records / {} security records",
        data.companies.len(),
        data.securities.len()
    );

    // 2. Fine-tune the pairwise matcher on 60 % of the record groups.
    let companies = data.companies.records();
    let gt = data.companies.ground_truth();
    let split = DatasetSplit::new(&gt, SplitRatios::default(), &mut SplitRng::new(42));
    let spec = ModelSpec::DistilBert128All;
    let encoded = spec.encode_records(companies);
    let (matcher, report) =
        train(companies, &encoded, &gt, &split, &spec.train_config()).expect("training");
    println!(
        "fine-tuned {} in {:.1}s (best epoch {}, val loss {:.4})",
        spec,
        report.train_seconds,
        report.best_epoch + 1,
        report.val_losses[report.best_epoch]
    );

    // 3. The company matching domain: its Table 2 blocking recipe is
    // ID overlap (through securities) + token overlap.
    let domain = CompanyDomain::new(companies, data.securities.records());

    // 4-5. The engine's one-shot run: blocking -> pairwise matching ->
    // GraLMatch Graph Cleanup (γ=25, μ=5) -> entity groups.
    let pipeline = PipelineConfig::new(25, 5).with_pre_cleanup(50);
    let outcome =
        run_domain_with_matcher(&domain, &matcher, &encoded, &pipeline).expect("pipeline runs");
    println!(
        "blocking produced {} candidate pairs",
        outcome.num_candidates
    );

    // 6. The three-stage evaluation of the paper's Table 4.
    println!("\nstage                 precision  recall   F1       ClPur");
    println!(
        "pairwise (blocked)    {:>8.2}% {:>7.2}% {:>7.2}%      -",
        outcome.pairwise.precision * 100.0,
        outcome.pairwise.recall * 100.0,
        outcome.pairwise.f1 * 100.0
    );
    println!(
        "pre graph cleanup     {:>8.2}% {:>7.2}% {:>7.2}%   {:.2}",
        outcome.pre_cleanup.pairs.precision * 100.0,
        outcome.pre_cleanup.pairs.recall * 100.0,
        outcome.pre_cleanup.pairs.f1 * 100.0,
        outcome.pre_cleanup.cluster_purity
    );
    println!(
        "post graph cleanup    {:>8.2}% {:>7.2}% {:>7.2}%   {:.2}",
        outcome.post_cleanup.pairs.precision * 100.0,
        outcome.post_cleanup.pairs.recall * 100.0,
        outcome.post_cleanup.pairs.f1 * 100.0,
        outcome.post_cleanup.cluster_purity
    );
    println!(
        "\ncleanup removed {} pre-cleanup + {} min-cut + {} betweenness edges; {} groups",
        outcome.cleanup_report.pre_cleanup_removed,
        outcome.cleanup_report.mincut_removed,
        outcome.cleanup_report.betweenness_removed,
        outcome.groups.len()
    );
    println!("\nper-stage trace:\n{}", outcome.trace);
}
