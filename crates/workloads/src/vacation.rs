//! Vacation — the STAMP travel-reservation macro-benchmark, distributed.
//!
//! Three relations (cars, rooms, flights) of `rows` resources each, one
//! object per row, plus one object per customer holding its reservations.
//! As in the paper, *each of the reservations for car, hotel and flight
//! forms a closed-nested transaction* inside the root reservation
//! transaction.

use qrdtm_core::{Abort, ObjVal, ObjectId, TableRow, Tx};

/// Object layout of a Vacation instance.
#[derive(Clone, Copy, Debug)]
pub struct VacationLayout {
    /// First object id.
    pub base: u64,
    /// Rows per relation.
    pub rows: u64,
    /// Number of customers.
    pub customers: u64,
    /// Capacity of each resource row.
    pub capacity: i64,
}

impl VacationLayout {
    /// The row object of `(table, i)`.
    pub fn row(&self, table: usize, i: u64) -> ObjectId {
        debug_assert!(table < 3 && i < self.rows);
        ObjectId(self.base + table as u64 * self.rows + i)
    }

    /// The customer object of `c`.
    pub fn customer(&self, c: u64) -> ObjectId {
        debug_assert!(c < self.customers);
        ObjectId(self.base + 3 * self.rows + c)
    }

    /// Encode a reservation of `(table, i)` for storage in a customer list.
    pub fn encode(&self, table: usize, i: u64) -> i64 {
        (table as u64 * self.rows + i) as i64
    }

    /// Decode a stored reservation.
    pub fn decode(&self, code: i64) -> (usize, u64) {
        let code = code as u64;
        ((code / self.rows) as usize, code % self.rows)
    }

    /// Objects to preload: full-capacity rows and empty customers.
    pub fn setup(&self) -> Vec<(ObjectId, ObjVal)> {
        let mut objs = Vec::new();
        for table in 0..3 {
            for i in 0..self.rows {
                objs.push((
                    self.row(table, i),
                    ObjVal::Table(
                        [TableRow {
                            id: i as i64,
                            total: self.capacity,
                            used: 0,
                            price: 50 + ((table as i64 + 1) * i as i64) % 100,
                        }]
                        .into(),
                    ),
                ));
            }
        }
        for c in 0..self.customers {
            objs.push((self.customer(c), ObjVal::IntList([].into())));
        }
        objs
    }
}

/// Reserve one unit of `(table, pick)` if available; CT-sized helper.
async fn reserve_row(tx: &Tx, v: &VacationLayout, table: usize, pick: u64) -> Result<bool, Abort> {
    let oid = v.row(table, pick);
    let mut rows = tx.read(oid).await?.expect_table().to_vec();
    let row = &mut rows[0];
    if row.used < row.total {
        row.used += 1;
        tx.write(oid, ObjVal::Table(rows.into())).await?;
        Ok(true)
    } else {
        Ok(false)
    }
}

/// Make a reservation for `customer`: one closed-nested transaction per
/// relation (car, room, flight), then a CT updating the customer record.
/// Returns how many of the three resources were secured.
pub async fn make_reservation(
    tx: &Tx,
    v: &VacationLayout,
    customer: u64,
    picks: [u64; 3],
) -> Result<usize, Abort> {
    let mut got = Vec::new();
    for (table, &pick) in picks.iter().enumerate() {
        let v2 = *v;
        let ok = tx
            .closed(move |tx2| async move { reserve_row(&tx2, &v2, table, pick).await })
            .await?;
        if ok {
            got.push(v.encode(table, pick));
        }
    }
    if !got.is_empty() {
        let v2 = *v;
        let got2 = got.clone();
        tx.closed(move |tx2| {
            let got2 = got2.clone();
            let v2 = v2;
            async move {
                let oid = v2.customer(customer);
                let mut list = tx2.read(oid).await?.expect_list().to_vec();
                list.extend_from_slice(&got2);
                tx2.write(oid, ObjVal::IntList(list.into())).await
            }
        })
        .await?;
    }
    Ok(got.len())
}

/// Read-only availability query over the three picked rows.
pub async fn query(tx: &Tx, v: &VacationLayout, picks: [u64; 3]) -> Result<i64, Abort> {
    let mut free = 0;
    for (table, &pick) in picks.iter().enumerate() {
        let v2 = *v;
        free += tx
            .closed(move |tx2| async move {
                let rows = tx2.read(v2.row(table, pick)).await?;
                let row = &rows.expect_table()[0];
                Ok(row.total - row.used)
            })
            .await?;
    }
    Ok(free)
}

/// Delete a customer: release every resource it holds, then clear its
/// record. Returns the number of reservations released.
pub async fn delete_customer(tx: &Tx, v: &VacationLayout, customer: u64) -> Result<usize, Abort> {
    let oid = v.customer(customer);
    let record = tx.read(oid).await?;
    let list = record.expect_list();
    for &code in list {
        let (table, i) = v.decode(code);
        let v2 = *v;
        tx.closed(move |tx2| async move {
            let roid = v2.row(table, i);
            let mut rows = tx2.read(roid).await?.expect_table().to_vec();
            rows[0].used -= 1;
            tx2.write(roid, ObjVal::Table(rows.into())).await
        })
        .await?;
    }
    if !list.is_empty() {
        tx.write(oid, ObjVal::IntList([].into())).await?;
    }
    Ok(list.len())
}

/// Sum of `used` across all rows (must equal the total reservations held by
/// customers — the Vacation conservation invariant).
pub async fn total_used(tx: &Tx, v: &VacationLayout) -> Result<i64, Abort> {
    let mut used = 0;
    for table in 0..3 {
        for i in 0..v.rows {
            used += tx.read(v.row(table, i)).await?.expect_table()[0].used;
        }
    }
    Ok(used)
}

/// Total reservations recorded across all customers.
pub async fn total_reserved(tx: &Tx, v: &VacationLayout) -> Result<i64, Abort> {
    let mut n = 0;
    for c in 0..v.customers {
        n += tx.read(v.customer(c)).await?.expect_list().len() as i64;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrdtm_core::{Cluster, DtmConfig, NestingMode};
    use qrdtm_sim::NodeId;

    fn setup() -> (Cluster, VacationLayout) {
        let c = Cluster::new(DtmConfig {
            mode: NestingMode::Closed,
            ..Default::default()
        });
        let v = VacationLayout {
            base: 0,
            rows: 4,
            customers: 3,
            capacity: 2,
        };
        c.preload_all(v.setup());
        (c, v)
    }

    #[test]
    fn reservation_lifecycle_conserves_units() {
        let (c, v) = setup();
        let client = c.client(NodeId(3));
        c.sim().spawn(async move {
            let got = client
                .run(|tx| async move { make_reservation(&tx, &v, 0, [1, 2, 3]).await })
                .await;
            assert_eq!(got, 3);
            let (used, reserved) = client
                .run(|tx| async move {
                    Ok((total_used(&tx, &v).await?, total_reserved(&tx, &v).await?))
                })
                .await;
            assert_eq!(used, 3);
            assert_eq!(reserved, 3);
            let released = client
                .run(|tx| async move { delete_customer(&tx, &v, 0).await })
                .await;
            assert_eq!(released, 3);
            let used = client
                .run(|tx| async move { total_used(&tx, &v).await })
                .await;
            assert_eq!(used, 0);
        });
        c.sim().run();
    }

    #[test]
    fn capacity_limits_reservations() {
        let (c, v) = setup();
        let client = c.client(NodeId(4));
        c.sim().spawn(async move {
            // Capacity is 2; the third reservation of the same picks only
            // gets rows that still have room (none).
            for cust in 0..2 {
                let got = client
                    .run(|tx| async move { make_reservation(&tx, &v, cust, [0, 0, 0]).await })
                    .await;
                assert_eq!(got, 3);
            }
            let got = client
                .run(|tx| async move { make_reservation(&tx, &v, 2, [0, 0, 0]).await })
                .await;
            assert_eq!(got, 0, "rows exhausted");
            let free = client
                .run(|tx| async move { query(&tx, &v, [0, 0, 0]).await })
                .await;
            assert_eq!(free, 0);
        });
        c.sim().run();
    }

    #[test]
    fn query_is_read_only() {
        let (c, v) = setup();
        let client = c.client(NodeId(5));
        c.sim().spawn(async move {
            let free = client
                .run(|tx| async move { query(&tx, &v, [1, 1, 1]).await })
                .await;
            assert_eq!(free, 6);
        });
        c.sim().run();
        // A local (read-only) commit: no commit round.
        let s = c.stats();
        assert_eq!(s.local_commits, 1);
        assert_eq!(s.commit_rounds, 0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let v = VacationLayout {
            base: 0,
            rows: 10,
            customers: 1,
            capacity: 1,
        };
        for table in 0..3 {
            for i in 0..10 {
                assert_eq!(v.decode(v.encode(table, i)), (table, i));
            }
        }
    }
}
