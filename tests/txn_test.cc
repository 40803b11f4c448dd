// Transaction semantics (§3.1): atomicity, constraint-driven aborts,
// deterministic admission, duplication-bug prevention, status reporting.

#include <gtest/gtest.h>

#include "src/debug/checkpoint.h"
#include "src/sim/market.h"

namespace sgl {
namespace {

// A minimal bank: every account tries to withdraw via an atomic region
// constrained to stay non-negative.
const char* kBank = R"sgl(
class Account {
  state:
    number balance = 10;
    number withdraw_amount = 0;
}
script Withdraw for Account {
  if (withdraw_amount > 0) {
    atomic "wd" require(balance >= 0) {
      balance <- -withdraw_amount;
    }
  }
}
)sgl";

TEST(Txn, WithdrawalWithinBalanceCommits) {
  auto engine = Engine::Create(kBank);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto id = (*engine)->Spawn(
      "Account", {{"withdraw_amount", Value::Number(4)}});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(6.0, (*engine)->Get(*id, "balance")->AsNumber());
  EXPECT_DOUBLE_EQ(1.0, (*engine)->Get(*id, "wd_status")->AsNumber());
}

TEST(Txn, OverdraftAborts) {
  auto engine = Engine::Create(kBank);
  ASSERT_TRUE(engine.ok());
  auto id = (*engine)->Spawn(
      "Account", {{"withdraw_amount", Value::Number(25)}});
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(10.0, (*engine)->Get(*id, "balance")->AsNumber());
  EXPECT_DOUBLE_EQ(0.0, (*engine)->Get(*id, "wd_status")->AsNumber());
}

TEST(Txn, StatusIsMinusOneWithoutTransaction) {
  auto engine = Engine::Create(kBank);
  ASSERT_TRUE(engine.ok());
  auto id = (*engine)->Spawn("Account", {});
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(-1.0, (*engine)->Get(*id, "wd_status")->AsNumber());
}

TEST(Txn, ExactBoundaryCommits) {
  auto engine = Engine::Create(kBank);
  ASSERT_TRUE(engine.ok());
  auto id = (*engine)->Spawn(
      "Account", {{"withdraw_amount", Value::Number(10)}});
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(0.0, (*engine)->Get(*id, "balance")->AsNumber());
  EXPECT_DOUBLE_EQ(1.0, (*engine)->Get(*id, "wd_status")->AsNumber());
}

TEST(Txn, EngineCountsCommitsAndAborts) {
  auto engine = Engine::Create(kBank);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        (*engine)->Spawn("Account", {{"withdraw_amount", Value::Number(4)}})
            .ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        (*engine)->Spawn("Account", {{"withdraw_amount", Value::Number(99)}})
            .ok());
  }
  ASSERT_TRUE((*engine)->Tick().ok());
  const TxnStats& stats = (*engine)->executor().txn().last_tick();
  EXPECT_EQ(8, stats.issued);
  EXPECT_EQ(5, stats.committed);
  EXPECT_EQ(3, stats.aborted);
}

// Shared pool: several claimants drain one resource; the constraint lives
// on the *pool*, so admission must serialize cross-entity conflicts.
const char* kPool = R"sgl(
class Pool {
  state:
    number stock = 5;
}
class Claimant {
  state:
    ref<Pool> pool = null;
    number got = 0;   // txn-owned via atomic write below
}
script Claim for Claimant {
  if (pool != null) {
    atomic "claim" require(pool.stock >= 0) {
      pool.stock <- -2;
      got <- 1;
    }
  }
}
)sgl";

TEST(Txn, SharedPoolAdmitsFeasibleSubsetOnly) {
  auto engine = Engine::Create(kPool);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto pool = (*engine)->Spawn("Pool", {});
  ASSERT_TRUE(pool.ok());
  std::vector<EntityId> claimants;
  for (int i = 0; i < 4; ++i) {
    auto id = (*engine)->Spawn("Claimant", {{"pool", Value::Ref(*pool)}});
    claimants.push_back(*id);
  }
  ASSERT_TRUE((*engine)->Tick().ok());
  // stock 5, each claim takes 2: exactly 2 claims fit (5 -> 3 -> 1; a third
  // would hit -1 and violate stock >= 0).
  EXPECT_DOUBLE_EQ(1.0, (*engine)->Get(*pool, "stock")->AsNumber());
  int committed = 0;
  for (EntityId id : claimants) {
    committed += (*engine)->Get(id, "claim_status")->AsNumber() == 1.0;
  }
  EXPECT_EQ(2, committed);
  EXPECT_EQ(2, (*engine)->executor().txn().last_tick().aborted);
}

TEST(Txn, AdmissionOrderIsDeterministicBySpawnOrder) {
  // Earlier-spawned entities win under equal sites.
  auto engine = Engine::Create(kPool);
  ASSERT_TRUE(engine.ok());
  auto pool = (*engine)->Spawn("Pool", {{"stock", Value::Number(3)}});
  auto first = (*engine)->Spawn("Claimant", {{"pool", Value::Ref(*pool)}});
  auto second = (*engine)->Spawn("Claimant", {{"pool", Value::Ref(*pool)}});
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_DOUBLE_EQ(1.0, (*engine)->Get(*first, "claim_status")->AsNumber());
  EXPECT_DOUBLE_EQ(0.0, (*engine)->Get(*second, "claim_status")->AsNumber());
}

// --- The duping scenario (§3.1) -------------------------------------------

TEST(Txn, ContestedItemSellsExactlyOnce) {
  MarketConfig config;
  config.num_traders = 10;
  config.num_items = 1;
  config.contention = 8;
  config.active_fraction = 1.0;
  EngineOptions options;
  auto engine = MarketWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  Rng rng(3);
  MarketWorkload::AssignWants(engine->get(), config, &rng);
  ASSERT_TRUE((*engine)->Tick().ok());
  EXPECT_TRUE(MarketWorkload::OwnershipConsistent(engine->get()));
  const TxnStats& stats = (*engine)->executor().txn().last_tick();
  EXPECT_EQ(1, stats.committed) << "contested item must sell exactly once";
  EXPECT_EQ(stats.issued - 1, stats.aborted);
}

TEST(Txn, LongRunMarketNeverDupes) {
  MarketConfig config;
  config.num_traders = 24;
  config.num_items = 48;
  config.contention = 6;
  EngineOptions options;
  auto engine = MarketWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok());
  Rng rng(17);
  double gold0 = MarketWorkload::TotalGold(engine->get());
  for (int t = 0; t < 50; ++t) {
    MarketWorkload::AssignWants(engine->get(), config, &rng);
    ASSERT_TRUE((*engine)->Tick().ok());
    ASSERT_TRUE(MarketWorkload::OwnershipConsistent(engine->get()))
        << "dupe at tick " << t;
    ASSERT_TRUE(MarketWorkload::NoNegativeGold(engine->get()));
  }
  EXPECT_DOUBLE_EQ(gold0, MarketWorkload::TotalGold(engine->get()));
}

TEST(Txn, OwnershipTransferFlipsOwnerRef) {
  MarketConfig config;
  config.num_traders = 2;
  config.num_items = 1;
  config.contention = 2;
  config.active_fraction = 1.0;
  EngineOptions options;
  auto engine = MarketWorkload::Build(config, options);
  ASSERT_TRUE(engine.ok());
  // Find the item and its original owner.
  ClassId item_cls = (*engine)->catalog().Find("Item");
  EntityId item = (*engine)->world().table(item_cls).id_at(0);
  EntityId owner0 = (*engine)->Get(item, "owner")->AsRef();
  Rng rng(8);
  MarketWorkload::AssignWants(engine->get(), config, &rng);
  ASSERT_TRUE((*engine)->Tick().ok());
  if ((*engine)->executor().txn().last_tick().committed == 1) {
    EntityId owner1 = (*engine)->Get(item, "owner")->AsRef();
    EXPECT_NE(owner0, owner1);
    EXPECT_TRUE((*engine)->Get(owner1, "items")->AsSet().Contains(item));
    EXPECT_FALSE((*engine)->Get(owner0, "items")->AsSet().Contains(item));
  }
}

// --- Log-partitioning independence (flat intent logs) ----------------------
//
// Admission runs over (order_key, log, index) handles into per-worker
// intent logs. Order keys are unique per (site, issuing row), so the
// outcome — commit/abort set, status fields, TxnStats, world state — must
// be identical for *any* partitioning of the same intent multiset across
// any number of logs, in any within-log order. This is the invariant
// that makes parallel intent emission deterministic.

namespace partition_test {

// One logical buy intent, resolved by hand against a known market layout.
struct BuyIntent {
  uint64_t order_key;
  EntityId buyer;
  RowIdx buyer_row;
  EntityId seller;
  EntityId item;
  double value;
};

// Finds the market program's single TxnEmitOp (the compiled atomic "buy").
const TxnEmitOp* FindBuyOp(const CompiledProgram& program) {
  for (const CompiledScript& script : program.scripts) {
    for (const auto& phase : script.phases) {
      for (const auto& op : phase) {
        if (op->kind == PlanOp::Kind::kTxnEmit) {
          return static_cast<const TxnEmitOp*>(op.get());
        }
      }
    }
  }
  return nullptr;
}

// Emits `intent` into `log` with the same write sequence the compiled
// script produces: buyer pays, seller is paid, the item changes sets, the
// owner ref flips.
void EmitBuy(TxnIntentLog* log, const BuyIntent& intent, const TxnEmitOp* op,
             ClassId trader_cls, ClassId item_cls, FieldIdx gold_f,
             FieldIdx items_f, FieldIdx owner_f) {
  log->StartIntent(intent.order_key, intent.buyer, trader_cls,
                   intent.buyer_row, op);
  TxnResolvedWrite w;
  w.cls = trader_cls;
  w.field = gold_f;
  w.op = TxnWriteOp::kAddDelta;
  w.target = intent.buyer;
  w.num = -intent.value;
  log->AddWrite(w);
  w.target = intent.seller;
  w.num = intent.value;
  log->AddWrite(w);
  w.field = items_f;
  w.op = TxnWriteOp::kSetRemove;
  w.ref = intent.item;
  w.num = 0;
  log->AddWrite(w);
  w.target = intent.buyer;
  w.op = TxnWriteOp::kSetInsert;
  log->AddWrite(w);
  w.cls = item_cls;
  w.field = owner_f;
  w.op = TxnWriteOp::kSetRef;
  w.target = intent.item;
  w.ref = intent.buyer;
  log->AddWrite(w);
}

struct Outcome {
  uint64_t checksum;
  int64_t committed;
  int64_t aborted;
  std::vector<double> statuses;
  bool consistent;

  bool operator==(const Outcome& o) const {
    return checksum == o.checksum && committed == o.committed &&
           aborted == o.aborted && statuses == o.statuses &&
           consistent == o.consistent;
  }
};

// Builds a fresh (deterministic) market world, injects `intents` under the
// given log assignment, runs admission, and captures everything
// observable.
Outcome RunPartition(const MarketConfig& config,
                     const std::vector<BuyIntent>& intents,
                     const std::vector<int>& log_of, int num_logs) {
  EngineOptions options;
  auto engine = MarketWorkload::Build(config, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  const CompiledProgram& program = (*engine)->program();
  const TxnEmitOp* op = FindBuyOp(program);
  EXPECT_NE(op, nullptr);
  ClassId trader_cls = (*engine)->catalog().Find("Trader");
  ClassId item_cls = (*engine)->catalog().Find("Item");
  const ClassDef& trader_def = (*engine)->catalog().Get(trader_cls);
  FieldIdx gold_f = trader_def.FindState("gold");
  FieldIdx items_f = trader_def.FindState("items");
  FieldIdx owner_f = (*engine)->catalog().Get(item_cls).FindState("owner");

  TxnEngine& txn = (*engine)->executor().txn();
  txn.BeginTick(num_logs);
  for (size_t i = 0; i < intents.size(); ++i) {
    EmitBuy(txn.worker_log(log_of[i]), intents[i], op, trader_cls, item_cls,
            gold_f, items_f, owner_f);
  }
  txn.ApplyUpdate(&(*engine)->world());

  Outcome out;
  out.checksum = WorldChecksum((*engine)->world());
  out.committed = txn.last_tick().committed;
  out.aborted = txn.last_tick().aborted;
  const EntityTable& traders = (*engine)->world().table(trader_cls);
  FieldIdx status_f = trader_def.FindState("buy_status");
  for (size_t r = 0; r < traders.size(); ++r) {
    out.statuses.push_back(traders.Num(status_f)[r]);
  }
  out.consistent = MarketWorkload::OwnershipConsistent(engine->get());
  return out;
}

}  // namespace partition_test

TEST(Txn, AdmissionIsIndependentOfLogPartitioning) {
  using partition_test::BuyIntent;
  using partition_test::Outcome;
  using partition_test::RunPartition;

  MarketConfig config;
  config.num_traders = 12;
  config.num_items = 24;
  EngineOptions options;
  auto probe = MarketWorkload::Build(config, options);
  ASSERT_TRUE(probe.ok()) << probe.status();
  ClassId trader_cls = (*probe)->catalog().Find("Trader");
  ClassId item_cls = (*probe)->catalog().Find("Item");
  const EntityTable& traders = (*probe)->world().table(trader_cls);
  const EntityTable& items = (*probe)->world().table(item_cls);
  FieldIdx owner_f = (*probe)->catalog().Get(item_cls).FindState("owner");

  // A contended intent multiset: several buyers per item (duping pressure),
  // plus buyers issuing against multiple sellers (gold pressure).
  Rng rng(77);
  std::vector<BuyIntent> intents;
  for (int k = 0; k < 40; ++k) {
    BuyIntent in;
    RowIdx item_row = static_cast<RowIdx>(rng.NextBelow(items.size()));
    in.item = items.id_at(item_row);
    in.seller = items.RefCol(owner_f)[item_row];
    RowIdx buyer_row = static_cast<RowIdx>(rng.NextBelow(traders.size()));
    in.buyer = traders.id_at(buyer_row);
    in.buyer_row = buyer_row;
    if (in.buyer == in.seller) continue;  // script guard excludes self-buys
    in.value = config.item_value;
    // Site 7 is arbitrary; uniqueness per issuing row is what matters. A
    // buyer appears at most once (duplicate rows would collide keys), as in
    // a real tick where each row runs the atomic region once.
    in.order_key = (static_cast<uint64_t>(7) << 32) |
                   static_cast<uint64_t>(buyer_row);
    bool dup = false;
    for (const BuyIntent& prev : intents) {
      if (prev.buyer_row == buyer_row) dup = true;
    }
    if (!dup) intents.push_back(in);
  }
  ASSERT_GT(intents.size(), 6u);

  // Reference: everything in one log, emission order.
  std::vector<int> all_zero(intents.size(), 0);
  const Outcome reference = RunPartition(config, intents, all_zero, 1);
  EXPECT_TRUE(reference.consistent);
  EXPECT_GT(reference.committed, 0);

  // Structured partitionings: round-robin and block splits over 2..5
  // logs, including empty logs.
  for (int logs = 2; logs <= 5; ++logs) {
    std::vector<int> rr(intents.size()), block(intents.size());
    for (size_t i = 0; i < intents.size(); ++i) {
      rr[i] = static_cast<int>(i) % logs;
      block[i] = static_cast<int>(i * static_cast<size_t>(logs) /
                                  intents.size());
    }
    EXPECT_EQ(reference, RunPartition(config, intents, rr, logs))
        << "round-robin over " << logs << " logs diverged";
    EXPECT_EQ(reference, RunPartition(config, intents, block, logs + 1))
        << "block split over " << logs << " logs diverged";
  }

  // Random partitionings with shuffled within-log emission order: the
  // multiset is what matters, not how workers happened to batch it.
  for (int trial = 0; trial < 10; ++trial) {
    Rng prng(1000 + static_cast<uint64_t>(trial));
    int logs = 1 + static_cast<int>(prng.NextBelow(6));
    std::vector<size_t> perm(intents.size());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[prng.NextBelow(i)]);
    }
    std::vector<BuyIntent> shuffled;
    std::vector<int> assign;
    for (size_t i : perm) {
      shuffled.push_back(intents[i]);
      assign.push_back(static_cast<int>(
          prng.NextBelow(static_cast<uint64_t>(logs))));
    }
    EXPECT_EQ(reference, RunPartition(config, shuffled, assign, logs))
        << "random partition trial " << trial << " diverged";
  }
}

// End-to-end flavor of the same property: full ticks under different thread
// counts and morsel sizes produce different genuine log partitionings of
// each tick's intents; state and statistics must match the serial run
// tick for tick.
TEST(Txn, TickOutcomeIsIndependentOfThreadsAndMorsels) {
  MarketConfig config;
  config.num_traders = 48;
  config.num_items = 96;
  config.contention = 5;
  config.active_fraction = 0.5;

  auto run = [&](int threads, size_t morsel) {
    EngineOptions options;
    options.exec.num_threads = threads;
    options.exec.morsel_size = morsel;
    auto engine = MarketWorkload::Build(config, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    Rng rng(5150);
    std::vector<int64_t> commits;
    for (int t = 0; t < 12; ++t) {
      MarketWorkload::AssignWants(engine->get(), config, &rng);
      EXPECT_TRUE((*engine)->Tick().ok());
      commits.push_back((*engine)->last_stats().txn.committed);
      EXPECT_TRUE(MarketWorkload::OwnershipConsistent(engine->get()));
    }
    return std::make_pair(WorldChecksum((*engine)->world()), commits);
  };

  const auto reference = run(1, 2048);
  EXPECT_EQ(reference, run(2, 64));
  EXPECT_EQ(reference, run(4, 16));
  EXPECT_EQ(reference, run(4, 7));
  EXPECT_EQ(reference, run(3, 1));
}

// Writing a field both transactionally and via an update rule must be
// rejected at compile time (§2.2 strict partitioning).
TEST(Txn, OwnershipConflictWithUpdateRuleIsCompileError) {
  const char* bad = R"sgl(
class A {
  state:
    number gold = 0;
  effects:
    number dg : sum;
  update:
    gold = gold + dg;
}
script S for A {
  atomic "t" { gold <- 1; }
}
)sgl";
  auto engine = Engine::Create(bad);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(StatusCode::kSemanticError, engine.status().code());
}

}  // namespace
}  // namespace sgl
