//! A fn whose return type is `impl Trait`: same header rule as an
//! `impl Trait` parameter, and the fn after it must still parse.

pub fn pending(table: &Table) -> impl Iterator<Item = u32> + '_ {
    table.rows().filter(keep)
}

fn keep(row: &u32) -> bool {
    audit(row);
    true
}

fn audit(row: &u32) {}
