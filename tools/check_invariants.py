#!/usr/bin/env python3
"""Repo-specific invariant lints that clang-tidy cannot express.

Run from anywhere:  python3 tools/check_invariants.py

Rules (see DESIGN.md "Correctness tooling"):

  1. wire-byte conversions — every conversion of a wire byte into the Op or
     Status enums must go through the checked parse_op()/parse_status() in
     src/net/protocol.h.  A raw `static_cast<Op>`/`static_cast<Status>`
     anywhere else in src/ can turn hostile network data into an
     out-of-range enum value (UB the UBSan build traps at runtime; this rule
     catches it at lint time).

  2. metric naming grammar — every metric name literal registered in src/
     follows carousel_<subsystem>_<what>[_unit]: lowercase, underscore-
     separated, at least three segments.  Counters must end in `_total`,
     histograms in `_seconds` (the two unit suffixes the renderers and
     dashboards assume).  Label keys are lowercase identifiers.

  3. CMake option coverage — every CAROUSEL_* cache option defined in any
     CMakeLists.txt is documented in README.md, so no build knob ships
     undocumented.

  4. one durable-file layer, fsync before rename — every rename, fsync,
     unlink and truncate in src/ lives in the durable-file module
     (src/net/durable_file.*): a `rename(`, `::fsync(`, `fs::remove(` (or
     `std::filesystem::remove(`), `::unlink(`, `::truncate(` or `O_TRUNC`
     anywhere else in src/ is an error, so every durable step of the block
     store and the metadata journal is one the module's crash injector can
     cut, and carouselctl writes through it too.  (corrupt_at_rest's
     `pwrite` is the at-rest-rot test hook, not a durable step.)  Inside
     the module, every rename must be preceded, within a few lines, by a
     sync_file() of the file being renamed.  A rename without the flush can
     publish a block file or metadata snapshot whose bytes never reached
     stable storage — the exact torn-write window the crash-recovery tests
     exist to close.

  5. metric subsystem registry — the <subsystem> segment of every
     registered metric name must come from the known-subsystem list below.
     A typo'd subsystem (carousel_clutser_...) silently forks a metric
     family away from its dashboard; new subsystems are added here
     deliberately, together with their dashboards and alerts.

  6. repair metric provenance — every carousel_repair_* series is minted
     through the scheduler's repair_metric() helper: the quoted prefix
     "carousel_repair_" appears exactly once in src/net/repair_scheduler.cpp
     (inside that helper) and nowhere else in src/, except the read-side
     prefix filter in src/cli/cli.cpp which registers nothing.  A literal
     name registered elsewhere would fork the repair-dashboard family away
     from the scheduler's single naming point.

  7. hedge metric provenance — the hedged-read counter pair
     (carousel_store_hedged_reads_total / carousel_store_hedge_wins_total)
     is minted through the store's hedge_metric() helper: the quoted
     fragment "carousel_store_hedge" appears exactly once in
     src/net/store.cpp (inside that helper) and nowhere else in src/,
     except read-side prefix filters in src/cli/cli.cpp which register
     nothing.  The pair only makes sense together (wins <= hedged); two
     independently spelled literals drifting apart would split it across
     dashboards.

  8. annotated locking only — src/ code locks through the annotated
     wrappers in src/util/sync.h (util::Mutex / util::MutexLock /
     util::CondVar), never through raw std::mutex, std::lock_guard,
     std::unique_lock, std::scoped_lock or std::condition_variable.  A raw
     primitive is invisible to both the Clang Thread Safety Analysis build
     (CAROUSEL_THREAD_SAFETY=ON) and the runtime lock-rank checker, so a
     deadlock it introduces is caught by neither.  std::once_flag /
     std::call_once (and therefore `#include <mutex>`) stay allowed: they
     are one-shot initialization, not a lock order anyone can invert.

  9. failure-domain plumbing — (a) every carousel_cluster_domain_* gauge is
     minted through the monitor's domain_metric() helper: the quoted prefix
     "carousel_cluster_domain_" appears exactly once in src/net/cluster.cpp
     (inside that helper) and nowhere else in src/.  The domain rollup is
     one family; a literal spelled elsewhere would fork it away from its
     dashboard.  (b) one placement rule and one placement writer:
     `set_placement_locked(` appears only in src/net/store.{h,cpp}, and
     src/net/store.cpp references the one predicate, placement_fits_locked,
     at least four times (the definition, domain_fits_locked — which the
     candidate walk, the row writer and the rehome commit re-check all
     ask — journal replay, and reconcile's put adoption).  Each of
     `meta_->put_commit(`, `meta_->put_abort(`, `meta_->rehome_commit(` and
     `meta_->rehome_abort(` appears exactly once in src/net/store.cpp,
     inside its lifecycle helper (commit_put, abort_put, commit_rehome,
     abort_rehome), and `manifest_[` exactly once, in commit_put.  A
     placement mutation that bypasses the checked setter could stack more
     than n-k blocks of a stripe into one rack — the exact loss a
     whole-rack failure then turns into data loss — and a second copy of a
     commit or abort step drifts from the live one, for instance by doing
     its network I/O under the metadata lock.

 10. metadata journal provenance — (a) every carousel_meta_* series is
     minted through MetaLog::metric(): the quoted prefix "carousel_meta_"
     appears exactly once in src/net/meta_log.cpp (inside that helper) and
     nowhere else in src/, except read-side filters in src/cli/cli.cpp
     which register nothing.  (b) journal records are minted only through
     the MetaLog append API: `append_record(` appears only in
     src/net/meta_log.{h,cpp}.  A record framed anywhere else could skip
     the fsync-before-publish ordering the crash-recovery story rests on.

 11. one wire executor — every store op reaches a block through the
     store's remote executor (CarouselStore::Round in src/net/store.cpp),
     the one place the store calls a Client: each Client block call,
     `->get(`, `->get_range(`, `->project(`, `->put(`, `->verify(` and
     `->remove(`, appears at most once in src/, and only in
     src/net/store.cpp, where the executor dispatches it (`persist_->put(`
     in the BlockServer is a PersistentBlockStore call and does not
     match).  A second call site is a second way to reach a block —
     typically a serial per-block loop (a fetch, a probe, a delete) that
     bypasses the executor's concurrent rounds, first-wins slot cells and
     re-planning, and so waits one op deadline per block on a sick fleet
     where a round waits one.

 12. one MDS codec — Carousel is the only MDS codec class: every
     `: public LinearCode` in src/ derives Carousel or the LRC baseline
     (LocalReconstructionCode, the one non-MDS code).  RS and product-matrix
     MSR are Carousel(n,k,k,k) and Carousel(n,k,d,k); a second codec class
     for them would bring back a second copy of the repair math and a
     second set of benches comparing one code with itself.

 13. one background loop — `std::thread` (or `std::jthread`) appears in
     src/ code only under src/util/ (the ThreadPool workers and the one
     PeriodicThread loop) and in src/net/block_server.{h,cpp}, whose
     acceptor and per-connection sessions are the allowed exceptions.
     Background work elsewhere — scrubber sweeps, monitor probe rounds,
     scheduler dispatch passes — runs on util::PeriodicThread, so the
     start/stop/join discipline (claim the handle under the lock, join
     outside it) is written once instead of once per component.

 14. one healer, one stripe probe — `.repair_block(` and `.rehome_block(`
     (or `->`) calls appear in src/ code only in
     src/net/repair_scheduler.cpp, inside RepairScheduler::execute: the
     RepairScheduler is the one healer, and a Scrubber sweep only enqueues
     (into the scheduler it owns when none is attached).  `verify_block(`
     has no caller in src/ at all (its declaration and definition stay; it
     is public for tests and external audits): a sweep, a repair's probe
     round and reconcile() ask which blocks of a stripe are healthy
     through CarouselStore::probe_stripe, one VERIFY round per stripe.  A
     second heal site drifts from the scheduler's ordering, budgets and
     counters; a block-by-block verify walk costs n serial round trips per
     stripe where one round does.

 15. one file layer — a file's stripes are counted, split, padded and
     encoded only in src/codes/: outside it, src/ code makes no `.encode(`,
     `->encode(`, `encode_block(` or `encode_block_dense(` call and defines
     no `stripes_for(` or `stripe_message(` (LinearCode::stripes_for is the
     one stripe count and block-size check, LinearCode::stripe_message the
     one split and pad).  storage::ErasureFile and carouselctl encode a
     stripe with LinearCode::encode_stripe.  The store encodes only in its
     PUT slots: `encode_one(` is called only inside CarouselStore::Round::
     run (src/net/store.cpp), where each slot encodes its block of the
     stripe_message put_file hands it, and src/net/ makes no
     `encode_stripe(` call, so put_file has no encode step of its own.  A
     free function named encode (MetaLog's record framing,
     `encode(w, ...)`) is not a call on a code and does not match.  A
     second stripe loop drifts from the first: its own padding, its own
     empty-file rule, its own block-size check; an uninstrumented block
     encode drops out of carousel_codec_encode_*.

Exit status 0 when clean; 1 with one line per violation otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

METRIC_NAME = re.compile(r"^carousel_[a-z0-9]+(_[a-z0-9]+)+$")
LABEL_KEY = re.compile(r"^[a-z][a-z0-9_]*$")

# Rule 5: the one list of metric subsystems that exist.  Growing it is a
# deliberate act (new dashboards/alerts), not a side effect of a typo.
KNOWN_SUBSYSTEMS = {
    "client", "cluster", "codec", "gf", "meta", "persist", "repair",
    "scrub", "scrubber", "server", "store", "threadpool",
}


def src_files(*suffixes: str):
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix in suffixes and path.is_file():
            yield path


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def check_wire_casts(problems: list[str]) -> None:
    """Rule 1: no raw static_cast<Op>/<Status> outside src/net/protocol.h."""
    pattern = re.compile(
        r"static_cast<\s*(?:carousel::)?(?:net::)?(Op|Status)\s*>")
    allowed = REPO / "src" / "net" / "protocol.h"
    for path in src_files(".h", ".cpp"):
        if path == allowed:
            continue
        text = path.read_text()
        for m in pattern.finditer(text):
            problems.append(
                f"{path.relative_to(REPO)}:{line_of(text, m.start())}: "
                f"raw static_cast<{m.group(1)}> — wire bytes must go through "
                f"parse_{m.group(1).lower()}() (trusted indices through "
                f"op_from_index())")


def check_metric_names(problems: list[str]) -> None:
    """Rule 2: registered metric names follow the documented grammar."""
    # Kind visible through an obs::labeled(...) wrapper or a direct literal.
    kinded = re.compile(
        r"\b(counter|gauge|histogram)\(\s*(?:obs::)?labeled\(\s*\"([^\"]+)\""
        r"|\b(counter|gauge|histogram)\(\s*\"([^\"]+)\"")
    # Any labeled() call: base name and label key both face the grammar.
    labeled = re.compile(r"\blabeled\(\s*\"([^\"]+)\",\s*\"([^\"]+)\"")
    suffix_rule = {"counter": "_total", "histogram": "_seconds"}
    for path in src_files(".h", ".cpp"):
        text = path.read_text()
        where = lambda m: f"{path.relative_to(REPO)}:{line_of(text, m.start())}"
        for m in kinded.finditer(text):
            kind, name = (m.group(1), m.group(2)) if m.group(1) else \
                         (m.group(3), m.group(4))
            if not METRIC_NAME.match(name):
                problems.append(
                    f"{where(m)}: metric name '{name}' violates the "
                    f"carousel_<subsystem>_<what> grammar")
            want = suffix_rule.get(kind)
            if want and not name.endswith(want):
                problems.append(
                    f"{where(m)}: {kind} '{name}' must end in '{want}'")
        for m in labeled.finditer(text):
            base, key = m.group(1), m.group(2)
            if not METRIC_NAME.match(base):
                problems.append(
                    f"{where(m)}: labeled base '{base}' violates the "
                    f"carousel_<subsystem>_<what> grammar")
            if not LABEL_KEY.match(key):
                problems.append(
                    f"{where(m)}: label key '{key}' is not a lowercase "
                    f"identifier")


def check_metric_subsystems(problems: list[str]) -> None:
    """Rule 5: every registered metric's subsystem is a known one."""
    name_literal = re.compile(r"\"(carousel_[a-z0-9_]+)\"")
    for path in src_files(".h", ".cpp"):
        text = path.read_text()
        for m in name_literal.finditer(text):
            name = m.group(1)
            if not METRIC_NAME.match(name):
                continue  # rule 2 already reports the grammar violation
            subsystem = name.split("_")[1]
            if subsystem not in KNOWN_SUBSYSTEMS:
                problems.append(
                    f"{path.relative_to(REPO)}:{line_of(text, m.start())}: "
                    f"metric '{name}' uses unknown subsystem '{subsystem}' — "
                    f"typo, or add it to KNOWN_SUBSYSTEMS in "
                    f"tools/check_invariants.py deliberately")


def check_cmake_options(problems: list[str]) -> None:
    """Rule 3: every CAROUSEL_* CMake option is documented in README.md."""
    defined: dict[str, str] = {}
    pattern = re.compile(
        r"(?:option\(\s*(CAROUSEL_\w+)|set\(\s*(CAROUSEL_\w+)[^)]*?\bCACHE\b)",
        re.DOTALL)
    for path in sorted(REPO.rglob("CMakeLists.txt")):
        if "build" in path.parts:
            continue
        for m in pattern.finditer(path.read_text()):
            name = m.group(1) or m.group(2)
            defined.setdefault(name, str(path.relative_to(REPO)))
    readme = (REPO / "README.md").read_text()
    for name, origin in sorted(defined.items()):
        if name not in readme:
            problems.append(
                f"{origin}: CMake option {name} is not documented in "
                f"README.md")


def code_lines(path: Path) -> list[str]:
    """The file's lines with comments and string literals blanked out."""
    string = re.compile(r'"(?:\\.|[^"\\])*"')
    code = []
    for line in path.read_text().splitlines():
        if line.lstrip().startswith(("//", "*", "/*")):
            code.append("")
        else:
            code.append(string.sub('""', line).split("//")[0])
    return code


def check_fsync_before_rename(problems: list[str]) -> None:
    """Rule 4: file mutations live in the durable module, flush first."""
    rename = re.compile(r"\brename\s*\(")
    mutation = re.compile(
        r"\brename\s*\(|::fsync\s*\(|\b(?:fs|std::filesystem)::remove\s*\("
        r"|::unlink\s*\(|::truncate\s*\(|\bO_TRUNC\b")
    flush = re.compile(r"\bsync_file\s*\(")
    window = 8  # lines above the rename that must contain the flush
    module = REPO / "src" / "net"
    for path in src_files(".h", ".cpp"):
        in_module = path.parent == module and path.stem == "durable_file"
        # Only code counts: comments and string literals neither rename nor
        # flush anything.
        code = code_lines(path)
        for i, line in enumerate(code):
            where = f"{path.relative_to(REPO)}:{i + 1}"
            if not in_module:
                if mutation.search(line):
                    problems.append(
                        f"{where}: rename/fsync/unlink/truncate outside "
                        f"src/net/durable_file.* — take durable steps "
                        f"through the durable-file module")
                continue
            if not rename.search(line):
                continue
            if not any(flush.search(l) for l in code[max(0, i - window):i]):
                problems.append(
                    f"{where}: rename without a sync_file() of the source "
                    f"within {window} lines — a crash could publish "
                    f"unflushed bytes")


def check_repair_metric_provenance(problems: list[str]) -> None:
    """Rule 6: carousel_repair_* names are minted only by repair_metric()."""
    helper = REPO / "src" / "net" / "repair_scheduler.cpp"
    # Read-side consumers that filter on the prefix but register nothing.
    readers = {REPO / "src" / "cli" / "cli.cpp"}
    literal = re.compile(r"\"[^\"\n]*carousel_repair_[^\"\n]*\"")
    for path in src_files(".h", ".cpp"):
        text = path.read_text()
        hits = list(literal.finditer(text))
        if path == helper:
            if len(hits) != 1:
                problems.append(
                    f"{path.relative_to(REPO)}: expected exactly one quoted "
                    f"\"carousel_repair_\" (the repair_metric() helper), "
                    f"found {len(hits)} — route every series through the "
                    f"helper")
            continue
        if path in readers:
            continue
        for m in hits:
            problems.append(
                f"{path.relative_to(REPO)}:{line_of(text, m.start())}: "
                f"carousel_repair_* literal outside repair_metric() — mint "
                f"repair series through the helper in "
                f"src/net/repair_scheduler.cpp")


def check_hedge_metric_provenance(problems: list[str]) -> None:
    """Rule 7: carousel_store_hedge* names are minted only by hedge_metric()."""
    helper = REPO / "src" / "net" / "store.cpp"
    # Read-side consumers that filter on the prefix but register nothing.
    readers = {REPO / "src" / "cli" / "cli.cpp"}
    literal = re.compile(r"\"[^\"\n]*carousel_store_hedge[^\"\n]*\"")
    for path in src_files(".h", ".cpp"):
        text = path.read_text()
        hits = list(literal.finditer(text))
        if path == helper:
            if len(hits) != 1:
                problems.append(
                    f"{path.relative_to(REPO)}: expected exactly one quoted "
                    f"\"carousel_store_hedge\" (the hedge_metric() helper), "
                    f"found {len(hits)} — mint both hedge counters through "
                    f"the helper")
            continue
        if path in readers:
            continue
        for m in hits:
            problems.append(
                f"{path.relative_to(REPO)}:{line_of(text, m.start())}: "
                f"carousel_store_hedge* literal outside hedge_metric() — "
                f"mint the hedge counter pair through the helper in "
                f"src/net/store.cpp")


def check_raw_locking(problems: list[str]) -> None:
    """Rule 8: src/ locks only through the util/sync.h wrappers."""
    allowed = REPO / "src" / "util" / "sync.h"
    # std::once_flag/std::call_once are deliberately not matched; neither is
    # `#include <mutex>` (which once_flag needs).
    raw = re.compile(
        r"\bstd::(mutex|lock_guard|unique_lock|scoped_lock"
        r"|condition_variable(?:_any)?)\b")
    for path in src_files(".h", ".cpp"):
        if path == allowed:
            continue
        text = path.read_text()
        for m in raw.finditer(text):
            problems.append(
                f"{path.relative_to(REPO)}:{line_of(text, m.start())}: "
                f"raw std::{m.group(1)} — use the annotated util::Mutex/"
                f"MutexLock/CondVar wrappers from src/util/sync.h so the "
                f"thread-safety analysis and the lock-rank checker see it")


def check_domain_plumbing(problems: list[str]) -> None:
    """Rule 9: domain gauges and placement writes each have one home."""
    # 9a: the carousel_cluster_domain_* family is minted by domain_metric().
    helper = REPO / "src" / "net" / "cluster.cpp"
    literal = re.compile(r"\"[^\"\n]*carousel_cluster_domain_[^\"\n]*\"")
    for path in src_files(".h", ".cpp"):
        text = path.read_text()
        hits = list(literal.finditer(text))
        if path == helper:
            if len(hits) != 1:
                problems.append(
                    f"{path.relative_to(REPO)}: expected exactly one quoted "
                    f"\"carousel_cluster_domain_\" (the domain_metric() "
                    f"helper), found {len(hits)} — mint the domain rollup "
                    f"family through the helper")
            continue
        for m in hits:
            problems.append(
                f"{path.relative_to(REPO)}:{line_of(text, m.start())}: "
                f"carousel_cluster_domain_* literal outside domain_metric() "
                f"— mint domain gauges through the helper in "
                f"src/net/cluster.cpp")
    # 9b: placement writes route through the domain-checked choke point.
    store = REPO / "src" / "net" / "store.cpp"
    setter = re.compile(r"\bset_placement_locked\s*\(")
    for path in src_files(".h", ".cpp"):
        if path.parent == store.parent and path.stem == "store":
            continue  # declaration in store.h, definition+calls in store.cpp
        text = path.read_text()
        for m in setter.finditer(text):
            problems.append(
                f"{path.relative_to(REPO)}:{line_of(text, m.start())}: "
                f"set_placement_locked outside src/net/store.{{h,cpp}} — "
                f"placement writes belong to the store's domain-checked "
                f"choke point")
    code = code_lines(store)
    uses = sum(len(re.findall(r"\bplacement_fits_locked\b", line))
               for line in code)
    if uses < 4:
        problems.append(
            f"src/net/store.cpp: only {uses} placement_fits_locked "
            f"reference(s); expected >= 4 (definition, domain_fits_locked, "
            f"journal replay, reconcile) — a placement path has stopped "
            f"consulting the per-domain cap")
    # One intent lifecycle: each journaled put/rehome outcome, and the
    # manifest's one row insert, has exactly one call site, in its helper.
    owners = {
        "meta_->put_commit(": "commit_put",
        "meta_->put_abort(": "abort_put",
        "meta_->rehome_commit(": "commit_rehome",
        "meta_->rehome_abort(": "abort_rehome",
        "manifest_[": "commit_put",
    }
    definition = re.compile(r"^\S.*?\bCarouselStore::(\w+)\s*\(")
    enclosing: list[str | None] = []  # the function each line sits in
    current = None
    for line in code:
        m = definition.match(line)
        if m:
            current = m.group(1)
        enclosing.append(current)
    for call, helper in owners.items():
        hits = [i for i, line in enumerate(code) if call in line]
        if len(hits) == 1 and enclosing[hits[0]] == helper:
            continue
        sites = ", ".join(f"{i + 1} (in {enclosing[i]})" for i in hits)
        problems.append(
            f"src/net/store.cpp: `{call}` must appear exactly once, in "
            f"{helper}(); found at line(s) [{sites}] — journal and publish "
            f"a put or rehome outcome only through its lifecycle helper")


def check_meta_journal_provenance(problems: list[str]) -> None:
    """Rule 10: meta metrics and journal records each have one mint point."""
    # 10a: the carousel_meta_* family is minted by MetaLog::metric().
    helper = REPO / "src" / "net" / "meta_log.cpp"
    # Read-side consumers that filter on the prefix but register nothing.
    readers = {REPO / "src" / "cli" / "cli.cpp"}
    literal = re.compile(r"\"[^\"\n]*carousel_meta_[^\"\n]*\"")
    for path in src_files(".h", ".cpp"):
        text = path.read_text()
        hits = list(literal.finditer(text))
        if path == helper:
            if len(hits) != 1:
                problems.append(
                    f"{path.relative_to(REPO)}: expected exactly one quoted "
                    f"\"carousel_meta_\" (the MetaLog::metric() helper), "
                    f"found {len(hits)} — mint every meta series through "
                    f"the helper")
            continue
        if path in readers:
            continue
        for m in hits:
            problems.append(
                f"{path.relative_to(REPO)}:{line_of(text, m.start())}: "
                f"carousel_meta_* literal outside MetaLog::metric() — mint "
                f"meta series through the helper in src/net/meta_log.cpp")
    # 10b: journal records are framed only by the MetaLog append API.
    framer = re.compile(r"\bappend_record\s*\(")
    for path in src_files(".h", ".cpp"):
        if path.stem == "meta_log":
            continue  # declaration in meta_log.h, definition+calls in .cpp
        text = path.read_text()
        for m in framer.finditer(text):
            problems.append(
                f"{path.relative_to(REPO)}:{line_of(text, m.start())}: "
                f"append_record outside src/net/meta_log.{{h,cpp}} — journal "
                f"records are minted only through the MetaLog append API")


def check_one_wire_executor(problems: list[str]) -> None:
    """Rule 11: each Client block call has one call site, the executor's."""
    # A call with arguments: `->get()` on a smart pointer is not a fetch;
    # `persist_->put(` stores a block on a server's disk, not over a Client.
    fetch = re.compile(
        r"(?<!persist_)->(get|get_range|project|put|verify|remove)"
        r"\s*\((?!\s*\))")
    executor = REPO / "src" / "net" / "store.cpp"
    seen: dict[str, str] = {}
    for path in src_files(".h", ".cpp"):
        for i, line in enumerate(code_lines(path)):
            for m in fetch.finditer(line):
                where = f"{path.relative_to(REPO)}:{i + 1}"
                call = f"->{m.group(1)}("
                if path != executor:
                    problems.append(
                        f"{where}: Client {call} outside src/net/store.cpp "
                        f"— blocks are reached only through the store's "
                        f"remote executor")
                elif call in seen:
                    problems.append(
                        f"{where}: second Client {call} call site (first at "
                        f"{seen[call]}) — run the request through the "
                        f"executor's rounds instead of a second wire path")
                else:
                    seen[call] = where


def check_one_mds_codec(problems: list[str]) -> None:
    """Rule 12: only Carousel and the LRC baseline derive LinearCode."""
    allowed = {"Carousel", "LocalReconstructionCode"}
    derived = re.compile(
        r"\b(?:class|struct)\s+(\w+)(?:\s+final)?\s*:\s*"
        r"(?:public\s+)?(?:carousel::)?(?:codes::)?LinearCode\b")
    for path in src_files(".h", ".cpp"):
        text = "\n".join(code_lines(path))
        for m in derived.finditer(text):
            if m.group(1) not in allowed:
                problems.append(
                    f"{path.relative_to(REPO)}:{line_of(text, m.start())}: "
                    f"{m.group(1)} derives LinearCode — Carousel is the one "
                    f"MDS codec (RS is Carousel(n,k,k,k), MSR "
                    f"Carousel(n,k,d,k))")


def check_one_background_loop(problems: list[str]) -> None:
    """Rule 13: threads are spawned only in src/util/ and the BlockServer."""
    thread = re.compile(r"\bstd::j?thread\b")
    util = REPO / "src" / "util"
    net = REPO / "src" / "net"
    for path in src_files(".h", ".cpp"):
        if path.parent == util or (
                path.parent == net and path.stem == "block_server"):
            continue
        for i, line in enumerate(code_lines(path)):
            if thread.search(line):
                problems.append(
                    f"{path.relative_to(REPO)}:{i + 1}: std::thread outside "
                    f"src/util/ and src/net/block_server.* — run background "
                    f"work on util::PeriodicThread")


def check_one_healer(problems: list[str]) -> None:
    """Rule 14: heals run only in RepairScheduler::execute; no verify_block
    caller in src/."""
    heal = re.compile(r"(?:\.|->)(repair_block|rehome_block)\s*\(")
    # A call: not the definition (CarouselStore::verify_block) and not the
    # declaration (a return type in front of the name).
    verify = re.compile(r"(?<![:\w])verify_block\s*\(")
    declaration = re.compile(r"^\s*BlockState\s+verify_block\s*\(")
    definition = re.compile(r"^\S.*?\b\w+::(\w+)\s*\(")
    healer = REPO / "src" / "net" / "repair_scheduler.cpp"
    for path in src_files(".h", ".cpp"):
        current = None  # the out-of-line member each line sits in
        for i, line in enumerate(code_lines(path)):
            m = definition.match(line)
            if m:
                current = m.group(1)
            where = f"{path.relative_to(REPO)}:{i + 1}"
            for m in heal.finditer(line):
                if path == healer and current == "execute":
                    continue
                problems.append(
                    f"{where}: {m.group(1)}() called outside "
                    f"RepairScheduler::execute — enqueue the block into the "
                    f"RepairScheduler, the one healer")
            if verify.search(line) and not declaration.match(line):
                problems.append(
                    f"{where}: verify_block() called in src/ — probe the "
                    f"stripe with CarouselStore::probe_stripe (one VERIFY "
                    f"round) instead of block by block")


def body_lines(lines: list[str], start: int) -> range:
    """The line indices from `start` to the brace that closes the body the
    line opens (the first `{` at or after it)."""
    depth = 0
    opened = False
    for i in range(start, len(lines)):
        for ch in lines[i]:
            if ch == "{":
                depth += 1
                opened = True
            elif ch == "}":
                depth -= 1
                if opened and depth == 0:
                    return range(start, i + 1)
    return range(start, len(lines))


def check_one_file_layer(problems: list[str]) -> None:
    """Rule 15: file stripes are counted, split and encoded in src/codes/;
    the store encodes only in Round::run's PUT slots."""
    encode = re.compile(
        r"(?:\.|->)encode\s*\(|(?<![:\w])encode_block(?:_dense)?\s*\(")
    # A definition: out of line (`Type::name(` opening a line) or with its
    # body on the line; declarations and calls are neither.
    out_of_line = re.compile(r"^\S.*?\b\w+::(stripes_for|stripe_message)\s*\(")
    inline = re.compile(r"(?<![.>\w])(stripes_for|stripe_message)\s*\(.*\{")
    encode_one = re.compile(r"(?<![:\w])encode_one\s*\(")
    encode_stripe = re.compile(r"(?<![:\w])encode_stripe\s*\(")
    codes = REPO / "src" / "codes"
    net = REPO / "src" / "net"
    executor = net / "store.cpp"
    for path in src_files(".h", ".cpp"):
        if path.parent == codes:
            continue
        lines = code_lines(path)
        slot = range(0)  # Round::run's lines, where a PUT slot encodes
        if path == executor:
            round_at = next((i for i, line in enumerate(lines)
                             if re.match(r"^class\s+CarouselStore::Round\b",
                                         line)), None)
            run_at = None if round_at is None else next(
                (i for i in range(round_at, len(lines))
                 if re.match(r"^\s+static\s+bool\s+run\s*\(", lines[i])),
                None)
            if run_at is not None:
                slot = body_lines(lines, run_at)
        for i, line in enumerate(lines):
            where = f"{path.relative_to(REPO)}:{i + 1}"
            if encode.search(line):
                problems.append(
                    f"{where}: encode on a code outside src/codes/ — encode "
                    f"a file's stripe with LinearCode::encode_stripe, or a "
                    f"PUT slot's block with encode_one in Round::run")
            m = out_of_line.match(line) or inline.search(line)
            if m:
                problems.append(
                    f"{where}: {m.group(1)}() defined outside src/codes/ — "
                    f"LinearCode::{m.group(1)} is the one stripe layout")
            if encode_one.search(line) and i not in slot:
                problems.append(
                    f"{where}: encode_one() called outside "
                    f"CarouselStore::Round::run — a block is encoded in its "
                    f"PUT slot, beside the other slots' uploads")
            if path.parent == net and encode_stripe.search(line):
                problems.append(
                    f"{where}: encode_stripe() called in src/net/ — hand the "
                    f"round the stripe_message and let each PUT slot encode "
                    f"its own block")


def main() -> int:
    problems: list[str] = []
    check_wire_casts(problems)
    check_metric_names(problems)
    check_metric_subsystems(problems)
    check_cmake_options(problems)
    check_fsync_before_rename(problems)
    check_repair_metric_provenance(problems)
    check_hedge_metric_provenance(problems)
    check_raw_locking(problems)
    check_domain_plumbing(problems)
    check_meta_journal_provenance(problems)
    check_one_wire_executor(problems)
    check_one_mds_codec(problems)
    check_one_background_loop(problems)
    check_one_healer(problems)
    check_one_file_layer(problems)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"check_invariants: {len(problems)} violation(s)",
              file=sys.stderr)
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
