//! Method identifiers and their scheduling/communication properties.

use embrace_simnet::CommOrder;

/// Every end-to-end training method of the paper's evaluation, plus the
/// ablation variant (EmbRace with hybrid communication but without 2D
/// scheduling, Fig. 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MethodId {
    /// EmbRace: hybrid communication + 2D communication scheduling.
    EmbRace,
    /// EmbRace without scheduling (ablation): hybrid communication, FIFO
    /// queue, no vertical split, no FP hoisting.
    EmbRaceNoSched,
    /// EmbRace with Block-level Horizontal Scheduling only (Fig. 6b):
    /// priority queue + hoisted embedding FP, but whole-gradient embedding
    /// communication (no vertical split).
    EmbRaceHorizontal,
    /// Horovod with sparse-as-dense AllReduce (Horovod 0.21 PyTorch default).
    HorovodAllReduce,
    /// Horovod with sparse AllGather (Horovod ≥ 0.22 PyTorch default).
    HorovodAllGather,
    /// BytePS: dense PS + ByteScheduler partitioning/priority scheduling.
    BytePs,
    /// Parallax: sparse partitioned PS + dense AllReduce.
    Parallax,
}

impl MethodId {
    /// The four baselines the paper compares in Figs 7/8.
    pub const BASELINES: [MethodId; 4] = [
        MethodId::BytePs,
        MethodId::HorovodAllReduce,
        MethodId::HorovodAllGather,
        MethodId::Parallax,
    ];

    /// All end-to-end methods (EmbRace first).
    pub const ALL: [MethodId; 5] = [
        MethodId::EmbRace,
        MethodId::BytePs,
        MethodId::HorovodAllReduce,
        MethodId::HorovodAllGather,
        MethodId::Parallax,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            MethodId::EmbRace => "EmbRace",
            MethodId::EmbRaceNoSched => "EmbRace w/o Sched",
            MethodId::EmbRaceHorizontal => "EmbRace Horizontal",
            MethodId::HorovodAllReduce => "Horovod AllReduce",
            MethodId::HorovodAllGather => "Horovod AllGather",
            MethodId::BytePs => "BytePS",
            MethodId::Parallax => "Parallax",
        }
    }

    /// How the method's communication queue is ordered. Only EmbRace and
    /// BytePS (via ByteScheduler) schedule with priorities.
    pub fn comm_order(&self) -> CommOrder {
        match self {
            MethodId::EmbRace | MethodId::EmbRaceHorizontal | MethodId::BytePs => {
                CommOrder::Priority
            }
            _ => CommOrder::Fifo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = MethodId::ALL.iter().map(|m| m.name()).collect();
        names.push(MethodId::EmbRaceNoSched.name());
        names.push(MethodId::EmbRaceHorizontal.name());
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn properties_match_paper() {
        assert_eq!(MethodId::EmbRace.comm_order(), CommOrder::Priority);
        assert_eq!(MethodId::HorovodAllGather.comm_order(), CommOrder::Fifo);
        assert_eq!(MethodId::EmbRaceNoSched.comm_order(), CommOrder::Fifo);
    }
}
