//! Snapshot codec surface for the core structures: re-exports the section
//! encoder/decoder and its tag check from `amri-stream`, so every
//! `save`/`restore` pair in this crate speaks one dialect.

pub use amri_stream::{
    expect_tag, open_block, seal_block, SectionReader, SectionWriter, SnapshotError,
};
