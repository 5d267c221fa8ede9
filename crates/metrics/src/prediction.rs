//! Protein-complex prediction metrics (Table 2 of the paper).
//!
//! A clustering *predicts* that two proteins interact stably when it puts
//! them in the same cluster. Against a ground truth of complexes (MIPS in
//! the paper; planted complexes here), each co-clustered pair is a true
//! positive if some complex contains both proteins, a false positive
//! otherwise. Following the paper, the evaluation restricts to proteins
//! that appear in the ground truth (the paper restricts to proteins in
//! both Krogan and MIPS).

use std::collections::{HashMap, HashSet};

use ugraph_cluster::Clustering;
use ugraph_graph::NodeId;

/// Pairwise confusion matrix of a clustering against complex ground truth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Co-clustered pairs that share a complex.
    pub tp: u64,
    /// Co-clustered pairs that do not share a complex.
    pub fp: u64,
    /// Same-complex pairs split across clusters.
    pub fn_: u64,
    /// Pairs sharing neither cluster nor complex.
    pub tn: u64,
}

impl ConfusionMatrix {
    /// True positive rate `TP / (TP + FN)` (a.k.a. recall); 0 when there
    /// are no positives.
    pub fn tpr(&self) -> f64 {
        let pos = self.tp + self.fn_;
        if pos == 0 {
            0.0
        } else {
            self.tp as f64 / pos as f64
        }
    }

    /// False positive rate `FP / (FP + TN)`; 0 when there are no negatives.
    pub fn fpr(&self) -> f64 {
        let neg = self.fp + self.tn;
        if neg == 0 {
            0.0
        } else {
            self.fp as f64 / neg as f64
        }
    }

    /// Precision `TP / (TP + FP)`; 0 when nothing is predicted positive.
    pub fn precision(&self) -> f64 {
        let pred = self.tp + self.fp;
        if pred == 0 {
            0.0
        } else {
            self.tp as f64 / pred as f64
        }
    }

    /// F1 score (harmonic mean of precision and TPR); 0 when undefined.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.tpr();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Computes the pairwise confusion matrix of `clustering` against the
/// ground-truth `complexes`, restricted to proteins appearing in at least
/// one complex.
pub fn confusion(clustering: &Clustering, complexes: &[Vec<NodeId>]) -> ConfusionMatrix {
    // Ground-truth protein set and positive pair set.
    let mut in_truth: HashSet<NodeId> = HashSet::new();
    for c in complexes {
        in_truth.extend(c.iter().copied());
    }
    // A protein listed twice in one complex is one member: a repeat would
    // add a self-pair (a, a) that `total_pairs` never counts.
    let mut positive: HashSet<(u32, u32)> = HashSet::new();
    for c in complexes {
        let mut members = c.clone();
        members.sort_unstable();
        members.dedup();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                positive.insert((a.0, b.0));
            }
        }
    }
    let restricted: Vec<NodeId> = {
        let mut v: Vec<NodeId> = in_truth.iter().copied().collect();
        v.sort_unstable();
        v
    };
    let n = restricted.len() as u64;
    let total_pairs = n * n.saturating_sub(1) / 2;
    let positives = positive.len() as u64;

    // Predicted-positive pairs: same-cluster pairs among restricted
    // proteins. Grouped per cluster to avoid the full O(n²) scan.
    let mut members: HashMap<usize, Vec<NodeId>> = HashMap::new();
    for &p in &restricted {
        if let Some(cl) = clustering.cluster_of(p) {
            members.entry(cl).or_default().push(p);
        }
    }
    let mut tp = 0u64;
    let mut fp = 0u64;
    for group in members.values() {
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                let key = (a.0.min(b.0), a.0.max(b.0));
                if positive.contains(&key) {
                    tp += 1;
                } else {
                    fp += 1;
                }
            }
        }
    }
    let fn_ = positives - tp;
    let tn = total_pairs - positives - fp;
    ConfusionMatrix { tp, fp, fn_, tn }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_vec(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn perfect_prediction() {
        // Complexes {0,1,2} and {3,4}; clustering matches exactly.
        let complexes = vec![node_vec(&[0, 1, 2]), node_vec(&[3, 4])];
        let clustering = Clustering::new(
            vec![NodeId(0), NodeId(3)],
            vec![Some(0), Some(0), Some(0), Some(1), Some(1)],
        );
        let m = confusion(&clustering, &complexes);
        assert_eq!(m, ConfusionMatrix { tp: 4, fp: 0, fn_: 0, tn: 6 });
        assert_eq!(m.tpr(), 1.0);
        assert_eq!(m.fpr(), 0.0);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.f1(), 1.0);
    }

    #[test]
    fn everything_in_one_cluster() {
        let complexes = vec![node_vec(&[0, 1]), node_vec(&[2, 3])];
        let clustering = Clustering::new(vec![NodeId(0)], vec![Some(0), Some(0), Some(0), Some(0)]);
        let m = confusion(&clustering, &complexes);
        // All 6 restricted pairs predicted positive; 2 are true.
        assert_eq!(m, ConfusionMatrix { tp: 2, fp: 4, fn_: 0, tn: 0 });
        assert_eq!(m.tpr(), 1.0);
        assert_eq!(m.fpr(), 1.0);
    }

    #[test]
    fn all_singletons_predict_nothing() {
        let complexes = vec![node_vec(&[0, 1])];
        let clustering = Clustering::new(vec![NodeId(0), NodeId(1)], vec![Some(0), Some(1)]);
        let m = confusion(&clustering, &complexes);
        assert_eq!(m, ConfusionMatrix { tp: 0, fp: 0, fn_: 1, tn: 0 });
        assert_eq!(m.tpr(), 0.0);
        assert_eq!(m.fpr(), 0.0);
        assert_eq!(m.f1(), 0.0);
    }

    #[test]
    fn proteins_outside_truth_are_ignored() {
        // Node 9 is clustered with 0 but belongs to no complex: must not
        // count as FP.
        let complexes = vec![node_vec(&[0, 1])];
        let clustering = Clustering::new(
            vec![NodeId(0)],
            vec![Some(0), Some(0), None, None, None, None, None, None, None, Some(0)],
        );
        let m = confusion(&clustering, &complexes);
        assert_eq!(m, ConfusionMatrix { tp: 1, fp: 0, fn_: 0, tn: 0 });
    }

    #[test]
    fn overlapping_complexes_count_pairs_once() {
        // {0,1,2} and {1,2,3}: pair (1,2) appears in both but is one
        // positive.
        let complexes = vec![node_vec(&[0, 1, 2]), node_vec(&[1, 2, 3])];
        let clustering = Clustering::new(vec![NodeId(0)], vec![Some(0), Some(0), Some(0), Some(0)]);
        let m = confusion(&clustering, &complexes);
        // positives: (0,1),(0,2),(1,2),(1,3),(2,3) = 5; total pairs C(4,2)=6.
        assert_eq!(m.tp, 5);
        assert_eq!(m.fp, 1); // (0,3)
        assert_eq!(m.fn_, 0);
        assert_eq!(m.tn, 0);
    }

    #[test]
    fn repeated_complex_members_count_once() {
        // Path 0-1-2 as one cluster; node 2 is in no complex. Listing
        // protein 1 twice must not add a phantom (1, 1) positive.
        let clustering = Clustering::new(vec![NodeId(1)], vec![Some(0), Some(0), Some(0)]);
        let once = confusion(&clustering, &[node_vec(&[0, 1])]);
        assert_eq!(once, ConfusionMatrix { tp: 1, fp: 0, fn_: 0, tn: 0 });
        assert_eq!(confusion(&clustering, &[node_vec(&[0, 1, 1])]), once);
        assert_eq!(confusion(&clustering, &[node_vec(&[1, 0, 1, 0])]), once);
    }

    #[test]
    fn outlier_ground_truth_proteins_become_false_negatives() {
        let complexes = vec![node_vec(&[0, 1])];
        // Node 1 unassigned.
        let clustering = Clustering::new(vec![NodeId(0)], vec![Some(0), None]);
        let m = confusion(&clustering, &complexes);
        assert_eq!(m, ConfusionMatrix { tp: 0, fp: 0, fn_: 1, tn: 0 });
    }
}
