//! The one variable index both formulations lay their models out with: a
//! dense `(commodity, place, epoch) → VarId` table per variable kind, and the
//! `(source, chunk) → commodity` map in front of it.
//!
//! A commodity is what one set of flow rows moves — a representative source
//! in the LP, a `(source, chunk)` pair in the MILP — a place is a link (`F`)
//! or a node (`B`, `R`, `X`), and an epoch is an index into the horizon. A
//! formulation creates a variable for most of its slots, so a flat table is
//! both smaller and faster than a hash map keyed by the tuple, and it lists
//! its variables in a fixed order.

use teccl_lp::VarId;
use teccl_topology::NodeId;

/// A slot with no variable.
const ABSENT: u32 = u32::MAX;

/// One kind of variable of a time-expanded formulation, keyed
/// `(commodity, place, epoch)`.
#[derive(Debug, Clone)]
pub(crate) struct VarIndex {
    places: usize,
    epochs: usize,
    ids: Vec<u32>,
    len: usize,
}

impl VarIndex {
    /// An empty index over `commodities × places × epochs` slots.
    pub(crate) fn new(commodities: usize, places: usize, epochs: usize) -> Self {
        Self {
            places,
            epochs,
            ids: vec![ABSENT; commodities * places * epochs],
            len: 0,
        }
    }

    /// The slot of `(commodity, place, epoch)`; `None` for an epoch or a
    /// place outside the index.
    fn slot(&self, commodity: usize, place: usize, epoch: usize) -> Option<usize> {
        (place < self.places && epoch < self.epochs)
            .then(|| (commodity * self.places + place) * self.epochs + epoch)
    }

    /// Records `var` as the variable of `(commodity, place, epoch)`.
    pub(crate) fn insert(&mut self, commodity: usize, place: usize, epoch: usize, var: VarId) {
        let slot = self
            .slot(commodity, place, epoch)
            .expect("a slot inside the index");
        let id = u32::try_from(var.index()).expect("fewer than 2^32 variables");
        if self.ids[slot] == ABSENT {
            self.len += 1;
        }
        self.ids[slot] = id;
    }

    /// The variable of `(commodity, place, epoch)`, if there is one.
    pub(crate) fn get(&self, commodity: usize, place: usize, epoch: usize) -> Option<VarId> {
        let slot = self.slot(commodity, place, epoch)?;
        match self.ids.get(slot) {
            Some(&id) if id != ABSENT => Some(VarId(id as usize)),
            _ => None,
        }
    }

    /// Number of variables recorded.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every `((commodity, place, epoch), var)`, by commodity, then place,
    /// then epoch.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ((usize, usize, usize), VarId)> + '_ {
        let per_commodity = self.places * self.epochs;
        self.ids
            .iter()
            .enumerate()
            .filter(|&(_, &id)| id != ABSENT)
            .map(move |(slot, &id)| {
                let key = (
                    slot / per_commodity,
                    slot % per_commodity / self.epochs,
                    slot % self.epochs,
                );
                (key, VarId(id as usize))
            })
    }
}

/// A formulation's commodities in layout order, and the map from
/// `(source, chunk)` back to a commodity's position.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Commodities {
    list: Vec<(NodeId, usize)>,
    /// Chunks per source in `position`.
    chunks: usize,
    /// `position[s * chunks + c]`: the commodity of `(s, c)`, or `ABSENT`.
    position: Vec<u32>,
}

impl Commodities {
    /// Indexes `list`, whose order is the layout's.
    pub(crate) fn new(list: Vec<(NodeId, usize)>) -> Self {
        let nodes = list.iter().map(|&(s, _)| s.0 + 1).max().unwrap_or(0);
        let chunks = list.iter().map(|&(_, c)| c + 1).max().unwrap_or(0);
        let mut position = vec![ABSENT; nodes * chunks];
        for (i, &(s, c)) in list.iter().enumerate() {
            position[s.0 * chunks + c] = u32::try_from(i).expect("fewer than 2^32 commodities");
        }
        Self {
            list,
            chunks,
            position,
        }
    }

    /// The commodities in layout order.
    pub(crate) fn list(&self) -> &[(NodeId, usize)] {
        &self.list
    }

    /// Number of commodities.
    pub(crate) fn len(&self) -> usize {
        self.list.len()
    }

    /// The position of `(s, c)` in the layout, if it is a commodity.
    pub(crate) fn index(&self, s: NodeId, c: usize) -> Option<usize> {
        if c >= self.chunks {
            return None;
        }
        match self.position.get(s.0 * self.chunks + c) {
            Some(&i) if i != ABSENT => Some(i as usize),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips_and_lists_in_key_order() {
        let mut index = VarIndex::new(2, 3, 4);
        index.insert(1, 2, 3, VarId(7));
        index.insert(0, 1, 0, VarId(5));
        index.insert(0, 1, 0, VarId(6));
        assert_eq!(index.len(), 2);
        assert_eq!(index.get(1, 2, 3), Some(VarId(7)));
        assert_eq!(index.get(0, 1, 0), Some(VarId(6)));
        assert_eq!(index.get(0, 0, 0), None);
        // Outside the index: an epoch past the horizon, a commodity past the
        // last.
        assert_eq!(index.get(0, 1, 4), None);
        assert_eq!(index.get(2, 0, 0), None);
        let all: Vec<_> = index.iter().collect();
        assert_eq!(all, vec![((0, 1, 0), VarId(6)), ((1, 2, 3), VarId(7))]);
    }

    #[test]
    fn commodities_map_back_to_their_position() {
        let commodities = Commodities::new(vec![(NodeId(2), 1), (NodeId(0), 0)]);
        assert_eq!(commodities.len(), 2);
        assert_eq!(commodities.index(NodeId(2), 1), Some(0));
        assert_eq!(commodities.index(NodeId(0), 0), Some(1));
        assert_eq!(commodities.index(NodeId(0), 1), None);
        assert_eq!(commodities.index(NodeId(9), 0), None);
        assert_eq!(commodities.index(NodeId(0), 5), None);
    }
}
