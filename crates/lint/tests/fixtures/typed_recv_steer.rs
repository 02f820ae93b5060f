//! Another crate's type with a same-named method — one that can panic.

pub struct Done {
    inner: Option<u64>,
}

impl Done {
    pub fn id(&self) -> u64 {
        self.inner.unwrap()
    }
}
