//! Data sources the CLI can run against: a synthetic demo corpus, the
//! Table I evaluation workload, or real files (MeSH ASCII descriptors plus
//! a citation-store JSON snapshot).

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use bionav_medline::corpus::{self, CorpusConfig};
use bionav_medline::{CitationStore, InvertedIndex};
use bionav_mesh::synth::{self, SynthConfig};
use bionav_mesh::{parser, ConceptHierarchy};
use bionav_workload::{Workload, WorkloadConfig};

/// A hierarchy + store + index triple the REPL navigates over.
pub struct Dataset {
    /// The concept hierarchy.
    pub hierarchy: ConceptHierarchy,
    /// The citation store (associations + global counts).
    pub store: CitationStore,
    /// The keyword index.
    pub index: InvertedIndex,
    /// Human-readable origin, shown at startup.
    pub origin: String,
    /// A query suggestion the user can try first.
    pub suggestion: Option<String>,
}

impl Dataset {
    /// A self-contained synthetic demo (`size` concepts, `size × 2`
    /// citations), deterministic in `seed`.
    pub fn demo(seed: u64, size: usize) -> Dataset {
        #[expect(
            clippy::expect_used,
            reason = "SynthConfig::small() is a fixed valid config; generation failure is a bug worth aborting the demo for"
        )]
        let hierarchy =
            synth::generate(&SynthConfig::small(seed, size)).expect("synthetic hierarchies build");
        let store = corpus::generate(
            &hierarchy,
            &CorpusConfig {
                seed,
                n_citations: size * 2,
                ..CorpusConfig::default()
            },
        );
        let index = InvertedIndex::build(&store);
        let suggestion = hierarchy
            .iter_preorder()
            .skip(1)
            .max_by_key(|&n| {
                hierarchy
                    .node(n)
                    .descriptor()
                    .map(|d| store.observed_count(d))
                    .unwrap_or(0)
            })
            .map(|n| hierarchy.node(n).label().to_string());
        Dataset {
            hierarchy,
            store,
            index,
            origin: format!("synthetic demo (seed {seed}, ~{size} concepts)"),
            suggestion,
        }
    }

    /// The Table I evaluation workload at the given scale; try
    /// `query prothymosin`.
    pub fn workload(scale: f64) -> Dataset {
        let cfg = if (scale - 1.0).abs() < f64::EPSILON {
            WorkloadConfig::full()
        } else {
            WorkloadConfig::scaled(scale)
        };
        let w = Workload::build(&cfg);
        Dataset {
            hierarchy: w.hierarchy,
            store: w.store,
            index: w.index,
            origin: format!("ICDE 2009 evaluation workload (scale {scale})"),
            suggestion: Some("prothymosin".to_string()),
        }
    }

    /// Real data: a MeSH ASCII descriptor file plus a citation-store JSON
    /// snapshot (as written by `CitationStore::save_json`).
    pub fn from_files(
        mesh_path: &Path,
        store_path: &Path,
    ) -> Result<Dataset, Box<dyn std::error::Error>> {
        let mesh_src = std::fs::read_to_string(mesh_path)?;
        let descriptors = parser::parse_ascii(&mesh_src)?;
        let hierarchy = ConceptHierarchy::from_descriptors(&descriptors)?;
        let store = CitationStore::load_json(BufReader::new(File::open(store_path)?))?;
        let index = InvertedIndex::build(&store);
        Ok(Dataset {
            hierarchy,
            store,
            index,
            origin: format!("{} + {}", mesh_path.display(), store_path.display()),
            suggestion: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_dataset_is_queryable() {
        let d = Dataset::demo(3, 200);
        let hint = d.suggestion.as_deref().expect("demo suggests a query");
        assert!(!d.index.query(hint).is_empty());
    }

    #[test]
    fn workload_dataset_answers_prothymosin() {
        let d = Dataset::workload(0.12);
        assert!(!d.index.query("prothymosin").is_empty());
    }

    #[test]
    fn from_files_round_trips() {
        let dir = std::env::temp_dir().join(format!("bionav-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mesh_path = dir.join("mesh.bin");
        let store_path = dir.join("store.json");
        std::fs::write(
            &mesh_path,
            "*NEWRECORD\nMH = Apoptosis\nMN = G16\nUI = D017209\n",
        )
        .unwrap();
        let mut store = CitationStore::new();
        store
            .insert(bionav_medline::Citation::new(
                bionav_medline::CitationId(1),
                "t",
                vec!["apoptosis".into()],
                vec![bionav_mesh::DescriptorId(17209)],
                vec![],
            ))
            .unwrap();
        store.save_json(File::create(&store_path).unwrap()).unwrap();

        let d = Dataset::from_files(&mesh_path, &store_path).unwrap();
        assert_eq!(d.hierarchy.len(), 2);
        assert_eq!(d.index.query("apoptosis").len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_files_reports_missing_paths() {
        let err = Dataset::from_files(Path::new("/nonexistent/mesh"), Path::new("/nonexistent/s"));
        assert!(err.is_err());
    }
}
