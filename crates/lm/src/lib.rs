//! Trainable pairwise matching models (the paper's "language models").
//!
//! This crate substitutes a from-scratch trainable classifier for the
//! DistilBERT/DITTO fine-tunes of the paper (see DESIGN.md): record pairs
//! are serialized by a [`PairEncoder`] (plain vs DITTO `[col]…[val]…`
//! styles, 128/256-token budgets), featurized into a hashed sparse space,
//! and scored by a logistic head trained with Adagrad under the paper's
//! protocol (5:1 negative sampling, 5 epochs, lowest-validation-loss epoch
//! selection).
//!
//! * [`encode`] — encoders + truncation (the DITTO(128) failure mechanism),
//! * [`features`] — symmetric pair featurization (the reference path),
//! * [`compiled`] — interned, precomputed featurization (the hot path;
//!   bit-for-bit identical to [`features`]),
//! * [`model`] — logistic head + Adagrad,
//! * [`trainer`] — the fine-tuning loop and the low-label -15K variant,
//! * [`matcher`] — the [`PairwiseMatcher`] abstraction + heuristic baseline,
//! * [`inference`] — parallel batch scoring of blocked candidate pairs,
//! * [`spec`] — the Table 3/4 model lineup.

pub mod active;
pub mod compiled;
pub mod encode;
pub mod features;
pub mod inference;
pub mod matcher;
pub mod model;
pub mod persist;
pub mod spec;
pub mod trainer;

pub use active::{active_learning_loop, ActiveConfig, QueryStrategy, RoundReport};
pub use compiled::{CompiledDataset, FeatureScratch, ScoreScratch};
pub use encode::{encode_dataset, DittoEncoder, EncodedRecord, PairEncoder, PlainEncoder};
pub use features::{featurize, FeatureConfig, PairFeatures};
pub use inference::{
    predict_positive_with, score_pairs_with, CompiledScorer, MatcherScorer, PairScorer, ScoredPair,
};
pub use matcher::{CompiledMatcher, HeuristicMatcher, PairwiseMatcher, TrainedMatcher};
pub use model::{log_loss, sigmoid, Adagrad, LogisticModel};
pub use persist::SavedModel;
pub use spec::{ModelSpec, SpecEncoder};
pub use trainer::{train, train_with_negative_pool, TrainConfig, TrainingReport};
