#include "src/txn/txn_engine.h"

#include <algorithm>

#include "src/fault/fault_injector.h"
#include "src/telemetry/flight_recorder.h"

namespace sgl {

void TxnEngine::BeginTick(int num_workers) {
  // resize + Clear (not assign) keeps each log's capacity.
  if (logs_.size() != static_cast<size_t>(num_workers)) {
    logs_.resize(static_cast<size_t>(num_workers));
  }
  for (TxnIntentLog& log : logs_) log.Clear();
}

void TxnEngine::ApplyUpdate(World* world) {
  last_tick_ = TxnStats();

  // 1. Reset every status field to -1 ("no transaction this tick").
  for (ClassId c = 0; c < world->catalog().num_classes(); ++c) {
    const ClassDef& def = world->catalog().Get(c);
    EntityTable& table = world->table(c);
    for (const FieldDef& f : def.state_fields()) {
      // Status fields are the numeric txn-owned fields named *_status.
      if (!f.type.is_number()) continue;
      bool is_status = f.name.size() > 7 &&
                       f.name.rfind("_status") == f.name.size() - 7;
      if (!is_status) continue;
      bool owned = false;
      for (FieldIdx tf : program_->txn_owned[static_cast<size_t>(c)]) {
        if (tf == f.index) owned = true;
      }
      if (!owned) continue;
      NumberColumn col = table.Num(f.index);
      for (size_t r = 0; r < table.size(); ++r) col.at(r) = -1.0;
    }
  }

  // 2. Admission order: index handles into the worker logs, sorted by order
  // key. Keys are unique per (site, issuing row), so the (log, index)
  // tie-break never influences results for a well-formed tick — admission
  // is independent of how intents were partitioned across workers.
  order_.clear();
  for (size_t l = 0; l < logs_.size(); ++l) {
    for (size_t i = 0; i < logs_[l].num_intents(); ++i) {
      order_.push_back(IntentRef{logs_[l].intent(i).order_key,
                                 static_cast<uint32_t>(l),
                                 static_cast<uint32_t>(i)});
    }
  }
  std::sort(order_.begin(), order_.end(),
            [](const IntentRef& a, const IntentRef& b) {
              if (a.order_key != b.order_key) return a.order_key < b.order_key;
              if (a.log != b.log) return a.log < b.log;
              return a.index < b.index;
            });
  last_tick_.issued = static_cast<int64_t>(order_.size());

  // 3. Greedy admission against the tentative-state overlay.
  overlay_.BeginTick(*world, program_->txn_owned);
  overlay_.Clear();

  uint64_t fault_payload = 0;
  uint64_t admit_index = 0;
  for (const IntentRef& ref : order_) {
    // Injected mid-admission crash: stop processing intents here. The
    // partial overlay still writes back below and later issuers keep
    // status -1 — a deliberately torn update phase that only checkpoint
    // recovery (not forward execution) is allowed to repair.
    if (SGL_FAULT_POINT(fault_, kFaultTxnAdmitCrash, fault_tick_,
                        admit_index, &fault_payload)) {
      injected_crash_ = true;
      break;
    }
    ++admit_index;
    const TxnIntentLog& log = logs_[ref.log];
    const TxnIntent& intent = log.intent(ref.index);
    const TxnResolvedWrite* writes = log.writes(intent);
    undo_.clear();
    bool applicable = true;

    // Tentatively apply the intent's write slice.
    for (uint32_t wi = 0; wi < intent.num_writes; ++wi) {
      const TxnResolvedWrite& w = writes[wi];
      const World::Locator* loc = world->Find(w.target);
      if (loc == nullptr || loc->cls != w.cls) {
        applicable = false;  // dangling target: abort
        break;
      }
      if (w.op == TxnWriteOp::kAddDelta) {
        bool fresh;
        double* slot = overlay_.MutableNum(loc->cls, loc->row, w.field,
                                           &fresh);
        Undo u;
        u.kind = Undo::kNum;
        u.had = !fresh;
        u.cls = loc->cls;
        u.row = loc->row;
        u.field = w.field;
        u.old_num = fresh ? 0.0 : *slot;
        undo_.push_back(u);
        const double base =
            fresh ? world->table(loc->cls).Num(w.field)[loc->row] : *slot;
        *slot = base + w.num;
      } else if (w.op == TxnWriteOp::kSetRef) {
        bool fresh;
        EntityId* slot = overlay_.MutableRef(loc->cls, loc->row, w.field,
                                             &fresh);
        Undo u;
        u.kind = Undo::kRef;
        u.had = !fresh;
        u.cls = loc->cls;
        u.row = loc->row;
        u.field = w.field;
        u.old_ref = fresh ? kNullEntity : *slot;
        undo_.push_back(u);
        *slot = w.ref;
      } else {
        bool fresh;
        EntitySet* set = overlay_.MutableSet(loc->cls, loc->row, w.field,
                                             &fresh);
        Undo u;
        u.cls = loc->cls;
        u.row = loc->row;
        u.field = w.field;
        u.elem = w.ref;
        if (fresh) {
          // First touch this tick: seed the pooled slot from the table.
          // Mirroring the row's provisioned *capacity* (not just its size)
          // lets pre-sized workloads stay allocation-free through the
          // overlay as well.
          const EntitySet& base =
              world->table(loc->cls).SetCol(w.field)[loc->row];
          set->Reserve(base.capacity());
          *set = base;
          u.kind = Undo::kSetFresh;
          undo_.push_back(u);
        }
        if (w.op == TxnWriteOp::kSetInsert) {
          if (set->Insert(w.ref)) {
            u.kind = Undo::kSetInsert;
            undo_.push_back(u);
          }
        } else {
          // Structural rule: removing an element that is not (tentatively)
          // present aborts the transaction — double-spends of the same item
          // in one tick die here (§3.1's "duping" prevention).
          if (set->Erase(w.ref)) {
            u.kind = Undo::kSetErase;
            undo_.push_back(u);
          } else {
            applicable = false;
            break;
          }
        }
      }
    }

    // Evaluate constraints on the tentative state.
    bool ok = applicable;
    if (ok) {
      ScalarContext ctx;
      ctx.world = world;
      ctx.outer_cls = intent.issuer_cls;
      ctx.outer_row = intent.issuer_row;
      ctx.overlay = &overlay_;
      for (const ExprPtr& c : intent.op->constraints) {
        if (!EvalScalarBool(*c, ctx)) {
          ok = false;
          break;
        }
      }
    }

    if (!ok) {
      // Roll the tentative writes back (reverse order restores precisely;
      // set mutations are undone by their inverse operation, so no set
      // value is ever copied for rollback).
      for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
        bool fresh;
        switch (it->kind) {
          case Undo::kNum:
            if (it->had) {
              *overlay_.MutableNum(it->cls, it->row, it->field, &fresh) =
                  it->old_num;
            } else {
              overlay_.Erase(it->cls, it->row, it->field);
            }
            break;
          case Undo::kRef:
            if (it->had) {
              *overlay_.MutableRef(it->cls, it->row, it->field, &fresh) =
                  it->old_ref;
            } else {
              overlay_.Erase(it->cls, it->row, it->field);
            }
            break;
          case Undo::kSetFresh:
            overlay_.Erase(it->cls, it->row, it->field);
            break;
          case Undo::kSetInsert:
            overlay_.MutableSet(it->cls, it->row, it->field, &fresh)
                ->Erase(it->elem);
            break;
          case Undo::kSetErase:
            overlay_.MutableSet(it->cls, it->row, it->field, &fresh)
                ->Insert(it->elem);
            break;
        }
      }
      ++last_tick_.aborted;
    } else {
      ++last_tick_.committed;
      if (recorder_ != nullptr) {
        // One record per committed write. The contribution is the write's
        // delta / inserted element / new ref, not the folded overlay
        // state; field indexes are in state-field space (is_txn marks the
        // namespace) and the intent's order key is the txn id.
        FlightRecorder::Batch batch(recorder_, intent.num_writes);
        FrameRecord r{};
        r.order_key = intent.order_key;
        r.src_outer = intent.issuer;
        r.src_inner = kNullEntity;
        r.site = static_cast<int32_t>(intent.order_key >> 32);
        r.is_txn = true;
        for (uint32_t wi = 0; wi < intent.num_writes; ++wi) {
          const TxnResolvedWrite& w = writes[wi];
          const bool delta = w.op == TxnWriteOp::kAddDelta;
          r.target = w.target;
          r.target_cls = w.cls;
          r.field = w.field;
          r.assign_id = static_cast<int32_t>(wi);
          r.contrib = delta ? FramePayload::Num(w.num)
                            : FramePayload::Int(w.ref);
          r.contrib_kind = static_cast<uint32_t>(delta ? ValueKind::kNumber
                                                       : ValueKind::kRef);
          batch.Add(r);
        }
      }
    }

    // Report status to the issuer (1 committed / 0 aborted).
    const World::Locator* issuer = world->Find(intent.issuer);
    if (issuer != nullptr && intent.op->status_field != kInvalidField) {
      world->table(issuer->cls).Num(intent.op->status_field).at(issuer->row) =
          ok ? 1.0 : 0.0;
    }
  }

  // 4. Write committed state back to the tables. Rows were resolved at
  // admission time and are stable within the tick, so no directory lookups;
  // set write-back copy-assigns into the row's existing buffer.
  overlay_.ForEachTouched(
      [&](ClassId cls, RowIdx row, FieldIdx field, double v) {
        world->table(cls).Num(field).at(row) = v;
      },
      [&](ClassId cls, RowIdx row, FieldIdx field, const EntitySet& v) {
        world->table(cls).SetCol(field)[row] = v;
      },
      [&](ClassId cls, RowIdx row, FieldIdx field, EntityId v) {
        world->table(cls).RefCol(field)[row] = v;
      });
  if (recorder_ != nullptr) {
    auto note = [&](ClassId cls, RowIdx row, FieldIdx field, const auto&) {
      recorder_->NoteWriteBack(cls, row, field);
    };
    overlay_.ForEachTouched(note, note, note);
  }
  overlay_.Clear();

  total_.issued += last_tick_.issued;
  total_.committed += last_tick_.committed;
  total_.aborted += last_tick_.aborted;
}

namespace {

class TxnComponent : public UpdateComponent {
 public:
  TxnComponent(TxnEngine* engine, const CompiledProgram* program)
      : engine_(engine), program_(program) {}

  const std::string& name() const override { return name_; }

  std::vector<std::pair<ClassId, FieldIdx>> OwnedFields() const override {
    std::vector<std::pair<ClassId, FieldIdx>> out;
    for (size_t c = 0; c < program_->txn_owned.size(); ++c) {
      for (FieldIdx f : program_->txn_owned[c]) {
        out.emplace_back(static_cast<ClassId>(c), f);
      }
    }
    return out;
  }

  void Update(World* world, Tick tick) override {
    (void)tick;
    engine_->ApplyUpdate(world);
  }

 private:
  std::string name_ = "txn-engine";
  TxnEngine* engine_;
  const CompiledProgram* program_;
};

}  // namespace

std::unique_ptr<UpdateComponent> MakeTxnComponent(
    TxnEngine* engine, const CompiledProgram* program) {
  return std::make_unique<TxnComponent>(engine, program);
}

}  // namespace sgl
