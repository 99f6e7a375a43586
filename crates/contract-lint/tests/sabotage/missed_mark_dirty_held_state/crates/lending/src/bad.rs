// Sabotage fixture: an account-store mutation one field hop below the
// book owner (the state a protocol keeps beside its book) that never
// reaches `mark_dirty`. Never compiled — only fed to the analyzer binary.

pub struct Pool {
    state: PoolState,
    book: PositionBook,
}

pub struct PoolState {
    accounts: HashMap<Address, u64>,
}

impl Pool {
    pub fn deposit(&mut self, owner: Address, amount: u64) {
        self.state.accounts.insert(owner, amount);
    }
}
