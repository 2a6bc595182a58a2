//! String → position lookup over a dictionary.

/// The positions of a dictionary's entries ordered by string: how the
/// workspace finds a string in a dictionary that is already there (a binary
/// search, `O(log n)` string compares) — a fitted transform's ranks, a growing
/// column's codes.
///
/// It holds no strings — four bytes per entry — so every call takes the
/// entries it was built over; whoever owns those keeps the two in step.
/// Being derived from them it carries nothing of its own: it is never
/// serialized, and [`PartialEq`] never tells two indexes apart, so an owner
/// that derives equality compares its entries alone.
#[derive(Debug, Clone, Default)]
pub struct DictIndex {
    by_string: Vec<u32>,
}

impl PartialEq for DictIndex {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl DictIndex {
    /// Indexes `entries`. Of equal strings the lowest position answers.
    pub fn build(entries: &[String]) -> Self {
        let mut by_string: Vec<u32> = (0..entries.len() as u32).collect();
        by_string.sort_unstable_by(|&a, &b| {
            entries[a as usize].cmp(&entries[b as usize]).then(a.cmp(&b))
        });
        Self { by_string }
    }

    /// Whether this index has a position for every one of `entries` — false of
    /// the empty [`Default`] index over anything but an empty dictionary.
    pub fn covers(&self, entries: &[String]) -> bool {
        self.by_string.len() == entries.len()
    }

    /// Where `s` would sit among the sorted positions, and whether it is there.
    fn search(&self, entries: &[String], s: &str) -> (usize, bool) {
        let at = self.by_string.partition_point(|&p| entries[p as usize].as_str() < s);
        let found = self.by_string.get(at).is_some_and(|&p| entries[p as usize] == s);
        (at, found)
    }

    /// Position of `s` in `entries`, the slice this index was built over.
    pub fn position(&self, entries: &[String], s: &str) -> Option<u32> {
        let (at, found) = self.search(entries, s);
        found.then(|| self.by_string[at])
    }

    /// Position of `s` in `entries`, which gains it as its last entry when it
    /// holds no such string yet.
    pub fn position_or_push(&mut self, entries: &mut Vec<String>, s: &str) -> u32 {
        let (at, found) = self.search(entries, s);
        if found {
            return self.by_string[at];
        }
        let position = entries.len() as u32;
        entries.push(s.to_string());
        self.by_string.insert(at, position);
        position
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_every_entry_and_nothing_else() {
        let entries: Vec<String> =
            ["pear", "apple", "", "fig", "apple pie", "zebra"].map(String::from).to_vec();
        let index = DictIndex::build(&entries);
        for (i, s) in entries.iter().enumerate() {
            assert_eq!(index.position(&entries, s), Some(i as u32));
        }
        for absent in ["appl", "applf", "figs", "~", "Pear"] {
            assert_eq!(index.position(&entries, absent), None, "{absent}");
        }
        assert_eq!(DictIndex::default().position(&[], "x"), None);
    }

    #[test]
    fn equal_strings_answer_with_the_lowest_position() {
        let entries: Vec<String> = ["b", "a", "b", "a"].map(String::from).to_vec();
        let index = DictIndex::build(&entries);
        assert_eq!(index.position(&entries, "a"), Some(1));
        assert_eq!(index.position(&entries, "b"), Some(0));
    }

    #[test]
    fn pushes_keep_the_index_in_step_with_the_entries() {
        let mut entries: Vec<String> = vec!["m".into()];
        let mut index = DictIndex::build(&entries);
        for (s, want) in [("z", 1), ("a", 2), ("m", 0), ("n", 3), ("a", 2), ("", 4)] {
            assert_eq!(index.position_or_push(&mut entries, s), want, "{s}");
        }
        assert_eq!(entries, ["m", "z", "a", "n", ""]);
        let rebuilt = DictIndex::build(&entries);
        assert_eq!(index.by_string, rebuilt.by_string);
    }
}
