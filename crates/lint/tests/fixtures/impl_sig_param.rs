//! A method whose signature takes `impl Trait`. The `impl` token sits
//! inside a fn header, so the `{` after it is still the fn's body: the
//! method must be a call-graph node, under its impl type, with its
//! callees — here it is the only link between dispatch and `slot_of`.

pub struct Relay;

impl Relay {
    pub fn submit(&self, key: Symbol) -> u32 {
        self.on_result(key, || 0)
    }

    fn on_result(&self, key: Symbol, default: impl FnOnce() -> u32) -> u32 {
        slot_of(key) as u32 + default()
    }
}
