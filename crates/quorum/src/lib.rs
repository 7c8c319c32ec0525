//! # qrdtm-quorum — the tree quorum protocol
//!
//! QR-DTM manages replicas with Agrawal and El Abbadi's *tree quorum
//! protocol* (VLDB '90): the nodes form a logical ternary [`Tree`], a read
//! quorum is the root (or, recursively, a majority of children standing in
//! for an unavailable ancestor — or for an available one, under the *level*
//! policy that spreads read load), and a write quorum covers the root plus
//! a majority of children at **every** level down to the leaves.
//!
//! The pivotal property — *every read quorum intersects every write quorum,
//! and any two write quorums intersect* — is what gives QR-DTM 1-copy
//! equivalence: a committed write is visible to at least one node of any
//! read quorum, and two committing transactions always meet at some replica
//! that can order them. Those invariants are enforced here and checked
//! exhaustively by property tests (`tests/intersection.rs`).
//!
//! ## Example
//!
//! ```
//! use qrdtm_quorum::{Tree, TreeQuorum, intersects};
//!
//! let mut q = TreeQuorum::new(Tree::ternary(13));
//! assert_eq!(q.read_quorum().unwrap(), vec![0]);          // the root
//! assert_eq!(q.read_quorum_at_level(1).unwrap(), vec![1, 2]); // Fig. 3's R1
//! let w = q.write_quorum().unwrap();                      // 7 nodes
//!
//! q.fail(0); // root crashes
//! let r = q.read_quorum().unwrap(); // majority of the root's children
//! assert!(intersects(&r, &q.write_quorum().unwrap()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod select;
mod tree;

pub use select::{intersects, QuorumError, TreeQuorum};
pub use tree::Tree;
