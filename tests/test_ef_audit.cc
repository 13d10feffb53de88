/**
 * @file
 * ef-audit engine tests. Three layers:
 *
 *  - Clean-tree contract: the real repository (loaded from
 *    EF_REPO_ROOT) audits clean against the real manifest, so the
 *    suite fails the moment a new persistent field lands without
 *    hash/codec coverage or an audited annotation.
 *  - Mutation fixtures: for every manifest type, remove (or hollow
 *    out) one field's line from its hash or codec surface and assert
 *    the audit reports exactly the expected finding — proving each
 *    check actually bites, per surface kind.
 *  - Synthetic fixtures for the thread-ownership and layering rules,
 *    the annotation grammar, manifest strictness, and the JSON/SARIF
 *    emitters.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "audit.h"

namespace ef {
namespace {

namespace fs = std::filesystem;

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path.string();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** The real src/ + tools/ tree, loaded once (as ef_audit's CLI does). */
const std::vector<audit::SourceFile> &
real_tree()
{
    static const std::vector<audit::SourceFile> tree = [] {
        const fs::path root = EF_REPO_ROOT;
        std::vector<std::string> rels;
        for (const char *dir : {"src", "tools"}) {
            for (const auto &entry :
                 fs::recursive_directory_iterator(root / dir)) {
                const std::string ext =
                    entry.path().extension().string();
                if (entry.is_regular_file() &&
                    (ext == ".h" || ext == ".hpp" || ext == ".cc" ||
                     ext == ".cpp")) {
                    rels.push_back(fs::relative(entry.path(), root)
                                       .generic_string());
                }
            }
        }
        std::sort(rels.begin(), rels.end());
        std::vector<audit::SourceFile> files;
        for (const std::string &rel : rels)
            files.push_back({rel, slurp(root / rel)});
        return files;
    }();
    return tree;
}

const audit::Manifest &
real_manifest()
{
    static const audit::Manifest manifest = [] {
        std::vector<audit::Finding> errors;
        audit::Manifest m = audit::parse_manifest(
            "tools/ef_audit/state_manifest.txt",
            slurp(fs::path(EF_REPO_ROOT) / "tools" / "ef_audit" /
                  "state_manifest.txt"),
            &errors);
        EXPECT_TRUE(errors.empty())
            << (errors.empty() ? ""
                               : audit::format_finding(errors[0]));
        return m;
    }();
    return manifest;
}

std::vector<audit::Finding>
run(const audit::Manifest &manifest,
    const std::vector<audit::SourceFile> &files, int jobs = 2)
{
    audit::AuditOptions options;
    options.jobs = jobs;
    return audit::run_audit(manifest, files, options);
}

/**
 * Replace the unique line whose trimmed text equals @p needle in
 * @p file with @p replacement ("" deletes the line). Fails the test
 * if the needle matches zero or several lines.
 */
void
mutate(std::vector<audit::SourceFile> &files, const std::string &file,
       const std::string &needle, const std::string &replacement)
{
    auto trim = [](const std::string &s) {
        const std::size_t b = s.find_first_not_of(" \t\r");
        if (b == std::string::npos)
            return std::string();
        return s.substr(b, s.find_last_not_of(" \t\r") - b + 1);
    };
    for (audit::SourceFile &source : files) {
        if (source.path != file)
            continue;
        std::istringstream in(source.text);
        std::ostringstream out;
        std::string line;
        int hits = 0;
        while (std::getline(in, line)) {
            if (trim(line) == needle) {
                ++hits;
                if (!replacement.empty())
                    out << replacement << "\n";
            } else {
                out << line << "\n";
            }
        }
        ASSERT_EQ(hits, 1) << "needle '" << needle << "' in " << file;
        source.text = out.str();
        return;
    }
    FAIL() << "no such file in tree: " << file;
}

TEST(EfAuditRealTree, ManifestParsesAndTreeIsClean)
{
    const std::vector<audit::Finding> findings =
        run(real_manifest(), real_tree());
    for (const audit::Finding &finding : findings)
        ADD_FAILURE() << audit::format_finding(finding);
}

TEST(EfAuditRealTree, JobsCountDoesNotChangeFindings)
{
    std::vector<audit::SourceFile> files = real_tree();
    mutate(files, "src/sim/simulator.cc", "h.u64(next_seq_);", "");
    const auto serial = run(real_manifest(), files, 1);
    const auto parallel = run(real_manifest(), files, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(audit::format_finding(serial[i]),
                  audit::format_finding(parallel[i]));
    }
}

/** One mutation: drop @p needle from @p file, expect @p expected. */
struct Mutation
{
    const char *label;
    const char *file;
    const char *needle;
    const char *replacement;  ///< "" = delete the line
    struct Expect
    {
        const char *symbol;
        const char *kind;  ///< hash / encode / decode
    };
    std::vector<Expect> expected;
};

const Mutation kMutations[] = {
    {"simulator-hash-drops-next-seq", "src/sim/simulator.cc",
     "h.u64(next_seq_);", "",
     {{"ef::Simulator::next_seq_", "hash"}}},
    {"simulator-encode-drops-next-seq", "src/sim/simulator.cc",
     "enc->u64(next_seq_);", "",
     {{"ef::Simulator::next_seq_", "encode"}}},
    {"jobrt-hash-drops-executed", "src/sim/simulator.cc",
     "h.f64(job.executed);", "",
     {{"ef::Simulator::JobRt::executed", "hash"}}},
    // Live and retired jobs are both hashed through the job_digest
    // fold, so a field dropped from it is unhashed for every job.
    {"jobrt-fold-drops-straggler-until", "src/sim/simulator.cc",
     "h.f64(job.straggler_until);", "",
     {{"ef::Simulator::JobRt::straggler_until", "hash"}}},
    {"jobrt-decode-drops-executed", "src/sim/simulator.cc",
     "dec->f64(&job.executed);", "",
     {{"ef::Simulator::JobRt::executed", "decode"}}},
    {"service-hash-drops-admitted", "src/serve/service.cc",
     "h.u64(stats_.admitted);", "",
     {{"ef::serve::ServiceStats::admitted", "hash"}}},
    {"service-decode-drops-last-round", "src/serve/service.cc",
     "dec->f64(&last_round_);", "",
     {{"ef::serve::Service::last_round_", "decode"}}},
    {"active-hash-drops-deadline", "src/serve/service.cc",
     "h.f64(active.deadline);", "",
     {{"ef::serve::Service::Active::deadline", "hash"}}},
    {"governor-restore-drops-tokens", "src/serve/governor.h",
     "tokens_ = tokens;", "",
     {{"ef::serve::ReplanGovernor::tokens_", "decode"}}},
    {"rng-restore-drops-draws", "src/common/rng.cc",
     "draws_ = draws;", "",
     {{"ef::Rng::draws_", "decode"}}},
    // The draws() accessor is both a hash and an encode surface;
    // hollowing it out must surface on both sides.
    {"rng-accessor-stops-reading-draws", "src/common/rng.h",
     "std::uint64_t draws() const { return draws_; }",
     "    std::uint64_t draws() const { return 0; }",
     {{"ef::Rng::draws_", "hash"}, {"ef::Rng::draws_", "encode"}}},
    {"fault-fingerprint-drops-armed-ckpt", "src/fault/fault.cc",
     "h.u64(armed_ckpt_.size());", "",
     {{"ef::FaultInjector::armed_ckpt_", "hash"}}},
    {"fault-stream-encode-drops-forks", "src/serve/state_codec.cc",
     "enc->u64(stream.forks);", "",
     {{"ef::FaultInjector::State::Stream::forks", "encode"}}},
    {"jobspec-encode-drops-user", "src/serve/state_codec.cc",
     "enc->str(spec.user);", "",
     {{"ef::JobSpec::user", "encode"}}},
    // encode_curve reads the table through the table() accessor, so
    // rewiring the accessor severs the field from the encode surface
    // (decode stays covered: from_pow2_table writes table_ directly).
    {"curve-accessor-stops-reading-table", "src/core/scaling_curve.h",
     "const std::vector<double> &table() const { return table_; }",
     "    const std::vector<double> &table() const { return x_; }",
     {{"ef::ScalingCurve::table_", "encode"}}},
    {"stepseries-accessor-stops-reading-values", "src/common/stats.h",
     "const std::vector<double> &values() const { return values_; }",
     "    const std::vector<double> &values() const"
     " { return times_; }",
     {{"ef::StepSeries::values_", "encode"}}},
};

class EfAuditMutation : public ::testing::TestWithParam<Mutation>
{
};

TEST_P(EfAuditMutation, YieldsExactlyTheExpectedFindings)
{
    const Mutation &mutation = GetParam();
    std::vector<audit::SourceFile> files = real_tree();
    mutate(files, mutation.file, mutation.needle,
           mutation.replacement);
    const std::vector<audit::Finding> findings =
        run(real_manifest(), files);
    ASSERT_EQ(findings.size(), mutation.expected.size())
        << (findings.empty()
                ? "no findings"
                : audit::format_finding(findings[0]));
    for (const Mutation::Expect &expect : mutation.expected) {
        const bool matched = std::any_of(
            findings.begin(), findings.end(),
            [&](const audit::Finding &finding) {
                return finding.rule == "state-coverage" &&
                       finding.symbol == expect.symbol &&
                       finding.message.find(std::string("its ") +
                                            expect.kind +
                                            " surface") !=
                           std::string::npos;
            });
        EXPECT_TRUE(matched)
            << expect.symbol << " missing from its " << expect.kind
            << " surface was not reported";
    }
}

INSTANTIATE_TEST_SUITE_P(
    PerType, EfAuditMutation, ::testing::ValuesIn(kMutations),
    [](const ::testing::TestParamInfo<Mutation> &param_info) {
        std::string name = param_info.param.label;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

// ---------------------------------------------------------------------------
// Synthetic fixtures: manifest strictness, annotations, the
// thread-ownership and layering rules, and the emitters.
// ---------------------------------------------------------------------------

audit::Manifest
manifest_from(const std::string &text,
              std::vector<audit::Finding> *errors)
{
    return audit::parse_manifest("manifest.txt", text, errors);
}

TEST(EfAuditManifest, UnresolvableSurfaceIsABlockingFinding)
{
    // The def file parses but the declared hash function is gone — a
    // rename must not silently disable the audit.
    std::vector<audit::Finding> errors;
    audit::Manifest manifest = manifest_from(
        "type demo::Widget\n"
        "  def  fixtures/widget.h\n"
        "  hash fixtures/widget.cc state_hash\n",
        &errors);
    ASSERT_TRUE(errors.empty());
    const std::vector<audit::SourceFile> files = {
        {"fixtures/widget.h", "struct Widget { int x_ = 0; };\n"},
        {"fixtures/widget.cc", "int renamed_hash() { return 0; }\n"},
    };
    const auto findings = run(manifest, files);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "manifest");
    EXPECT_NE(findings[0].message.find("state_hash"),
              std::string::npos);
}

TEST(EfAuditManifest, ParseErrorsAreReported)
{
    std::vector<audit::Finding> errors;
    manifest_from("type demo::Widget\n"
                  "  frobnicate x y\n",
                  &errors);
    ASSERT_FALSE(errors.empty());
    EXPECT_EQ(errors[0].rule, "manifest");

    errors.clear();
    manifest_from("type demo::Widget\n"
                  "  hash a.cc f\n",  // no def line
                  &errors);
    ASSERT_FALSE(errors.empty());
    EXPECT_EQ(errors[0].rule, "manifest");
}

TEST(EfAuditAnnotations, TransientScopesAreHonored)
{
    std::vector<audit::Finding> errors;
    audit::Manifest manifest = manifest_from(
        "type demo::Widget\n"
        "  def  fixtures/widget.h\n"
        "  hash fixtures/widget.cc state_hash\n"
        "  encode fixtures/widget.cc encode\n",
        &errors);
    ASSERT_TRUE(errors.empty());
    const char *widget_cc =
        "unsigned state_hash() { return covered_; }\n"
        "void encode() { put(covered_); }\n";
    // Unannotated + uncovered: one finding per declared surface kind.
    auto findings = run(
        manifest,
        {{"fixtures/widget.h", "struct Widget { int missing_; };\n"},
         {"fixtures/widget.cc", widget_cc}});
    EXPECT_EQ(findings.size(), 2u);
    // transient(hash: ...) silences exactly the hash side.
    findings = run(
        manifest,
        {{"fixtures/widget.h",
          "struct Widget {\n"
          "  // ef-audit: transient(hash: derived)\n"
          "  int missing_;\n"
          "};\n"},
         {"fixtures/widget.cc", widget_cc}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("its encode surface"),
              std::string::npos);
    // A bare reason means all scopes; covered() works the same way.
    for (const char *annotation :
         {"// ef-audit: transient(rebuilt on load)",
          "// ef-audit: covered(hash, encode: via the base class)"}) {
        findings =
            run(manifest,
                {{"fixtures/widget.h",
                  std::string("struct Widget {\n  ") + annotation +
                      "\n  int missing_;\n};\n"},
                 {"fixtures/widget.cc", widget_cc}});
        EXPECT_TRUE(findings.empty()) << annotation;
    }
}

TEST(EfAuditAnnotations, MalformedAndUnsuppressibleAreReported)
{
    const audit::Manifest empty;
    // No reason.
    auto findings = run(
        empty,
        {{"fixtures/a.h", "// ef-audit: transient(hash:)\nint x;\n"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "bad-annotation");
    // Unknown keyword.
    findings = run(
        empty, {{"fixtures/a.h", "// ef-audit: ignore(x: y)\n"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "bad-annotation");
    // allow() may not waive state-coverage — only an audited
    // transient()/covered() on the declaration can.
    findings = run(
        empty,
        {{"fixtures/a.h", "// ef-audit: allow(state-coverage: no)\n"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "bad-annotation");
}

TEST(EfAuditThreadOwnership, SharedWritesInParallelForAreFlagged)
{
    const audit::Manifest empty;
    const char *bad =
        "void plan(ef::ThreadPool *pool, std::vector<int> &out) {\n"
        "    int total = 0;\n"
        "    ef::parallel_for(pool, 4, [&](int i) {\n"
        "        total += i;\n"
        "    });\n"
        "}\n";
    auto findings = run(empty, {{"src/core/demo.cc", bad}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "thread-ownership");
    EXPECT_NE(findings[0].message.find("total"), std::string::npos);

    // Index-owned slots, locals, and by-value captures are all fine.
    const char *good =
        "void plan(ef::ThreadPool *pool, std::vector<int> &out) {\n"
        "    int base = 7;\n"
        "    ef::parallel_for(pool, 4, [&, base](int i) {\n"
        "        int local = base + i;\n"
        "        local += 1;\n"
        "        out[i] = local;\n"
        "    });\n"
        "}\n";
    EXPECT_TRUE(run(empty, {{"src/core/demo.cc", good}}).empty());

    // Mutating-method calls on a shared container are writes too.
    const char *push =
        "void plan(ef::ThreadPool *pool, std::vector<int> &out) {\n"
        "    ef::parallel_for(pool, 4, [&](int i) {\n"
        "        out.push_back(i);\n"
        "    });\n"
        "}\n";
    findings = run(empty, {{"src/core/demo.cc", push}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "thread-ownership");

    // The audited escape hatch (line above the call site).
    const char *allowed =
        "void plan(ef::ThreadPool *pool, std::atomic<int> &n) {\n"
        "    // ef-audit: allow(thread-ownership: atomic counter)\n"
        "    ef::parallel_for(pool, 4, [&](int i) {\n"
        "        n += i;\n"
        "    });\n"
        "}\n";
    EXPECT_TRUE(run(empty, {{"src/core/demo.cc", allowed}}).empty());
}

TEST(EfAuditLayering, IncludesMustFollowTheDeclaredDag)
{
    std::vector<audit::Finding> errors;
    audit::Manifest manifest =
        manifest_from("layer base :\n"
                      "layer mid  : base\n"
                      "layer top  : mid\n",
                      &errors);
    ASSERT_TRUE(errors.empty());
    // top -> mid (direct) and top -> base (transitive) are fine.
    const std::vector<audit::SourceFile> good = {
        {"src/top/a.cc", "#include \"mid/m.h\"\n"
                         "#include \"base/b.h\"\n"
                         "#include \"top/a.h\"\n"
                         "#include <vector>\n"}};
    EXPECT_TRUE(run(manifest, good).empty());
    // base -> top inverts the DAG.
    const std::vector<audit::SourceFile> bad = {
        {"src/base/b.cc", "#include \"top/a.h\"\n"}};
    auto findings = run(manifest, bad);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "layering");
    EXPECT_EQ(findings[0].file, "src/base/b.cc");
    EXPECT_EQ(findings[0].line, 1);
    // A directory missing from the DAG is itself a finding.
    const std::vector<audit::SourceFile> unknown = {
        {"src/rogue/r.cc", "#include \"base/b.h\"\n"}};
    findings = run(manifest, unknown);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "layering");
}

TEST(EfAuditOutput, JsonAndSarifCarryTheFindings)
{
    const std::vector<audit::Finding> findings = {
        {"src/a.cc", 3, "state-coverage", "T::x", "field 'x' missing"}};
    const std::string json = audit::findings_to_json(findings);
    EXPECT_NE(json.find("\"state-coverage\""), std::string::npos);
    EXPECT_NE(json.find("\"src/a.cc\""), std::string::npos);
    EXPECT_NE(json.find("\"count\""), std::string::npos);
    const std::string sarif = audit::findings_to_sarif(findings);
    EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ef-audit\""), std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\":3"), std::string::npos);
}

TEST(EfAuditRules, NamesAreStable)
{
    const std::vector<std::string> expected = {
        "state-coverage", "thread-ownership", "layering", "manifest",
        "bad-annotation"};
    EXPECT_EQ(audit::rule_names(), expected);
}

}  // namespace
}  // namespace ef
