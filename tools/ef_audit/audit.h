/**
 * @file
 * ef-audit: cross-file semantic analysis for the repo's durability and
 * determinism contracts.
 *
 * Where ef-lint (tools/ef_lint) judges one file at a time, ef-audit
 * runs in two passes: pass 1 builds a lightweight symbol index over
 * the scanned sources (class/struct member fields, quoted-include
 * graph, lambda captures at ef::ThreadPool dispatch sites); pass 2
 * runs cross-file rules over that index:
 *
 *   state-coverage   Every member field of a type registered in the
 *                    state manifest (tools/ef_audit/state_manifest.txt)
 *                    must appear in each of the type's declared
 *                    coverage surfaces: its state-hash chain and its
 *                    recover::Encoder / Decoder encode+decode pair.
 *                    Adding a field to Simulator or serve::Service and
 *                    forgetting to hash or journal it is exactly the
 *                    bug that compiles clean, passes tests, and breaks
 *                    bit-identical recovery — this rule makes it a
 *                    blocking finding at the field's declaration site.
 *   thread-ownership Lambdas passed to parallel_for may only write
 *                    through locals bound to index-owned slots.
 *                    Captured-by-reference mutation of shared state
 *                    without a subscripted owned slot violates the
 *                    ThreadPool determinism contract (DESIGN.md §7).
 *   layering         Quoted includes in src/ must respect the library
 *                    DAG declared in the manifest: a directory may
 *                    include itself and its (transitive) declared
 *                    dependencies, never upward or cyclically.
 *   manifest         The manifest must stay bound to reality: a type,
 *                    file, or surface function it names that no longer
 *                    resolves is itself a blocking finding, so renames
 *                    cannot silently disable the audit.
 *   bad-annotation   Malformed ef-audit annotations.
 *
 * Escape hatches (all audited — each carries a mandatory reason):
 *
 *   // ef-audit: transient(<scopes>: <reason>)
 *       The field is deliberately outside the named coverage surfaces.
 *       <scopes> is a comma list of hash / encode / decode / codec
 *       (= encode+decode) / all; a bare transient(<reason>) means all.
 *   // ef-audit: covered(<scopes>: <reason>)
 *       The field IS covered, but indirectly (through an accessor or
 *       an equivalent value), so the lexical check cannot see it.
 *       Same scope grammar; semantically an audited exemption.
 *   // ef-audit: allow(<rule>: <reason>)
 *       Suppress a thread-ownership or layering finding on this line
 *       or the line below (same contract as ef-lint allow()).
 *
 * transient/covered attach to the field's declaration line or the
 * line directly above it, in the file that defines the type.
 */
#ifndef EF_TOOLS_EF_AUDIT_AUDIT_H_
#define EF_TOOLS_EF_AUDIT_AUDIT_H_

#include <string>
#include <string_view>
#include <vector>

namespace ef {
namespace audit {

/** One file handed to the audit: repo-relative path + contents. */
struct SourceFile
{
    std::string path;  // forward-slash, relative to the repo root
    std::string text;
};

/** One rule violation. */
struct Finding
{
    std::string file;
    int line = 0;
    std::string rule;
    /** "Type::field" for state-coverage, else empty. */
    std::string symbol;
    std::string message;
};

/** "file:line: [rule] (symbol) message" */
std::string format_finding(const Finding &finding);

/** All rule names, for allow() validation and --list-rules. */
const std::vector<std::string> &rule_names();

/** The audited-state manifest: types + the library layering DAG. */
struct Manifest
{
    /** One hash/encode/decode surface: a function in a file. */
    struct Surface
    {
        std::string file;
        std::string function;
        int line = 0;  // manifest line, for manifest findings
    };
    struct Type
    {
        /** Qualified name as written (ef::Simulator::JobRt); only the
         *  terminal identifier is matched against class/struct keys. */
        std::string name;
        std::string def_file;
        std::vector<Surface> hash;
        std::vector<Surface> encode;
        std::vector<Surface> decode;
        int line = 0;
    };
    struct Layer
    {
        std::string dir;                // e.g. "serve"
        std::vector<std::string> deps;  // direct dependencies
        int line = 0;
    };
    std::vector<Type> types;
    std::vector<Layer> layers;
};

/**
 * Parse the manifest text. Syntax problems become rule-"manifest"
 * findings in @p errors (reported against @p path); the surviving
 * entries are still returned so one bad line does not disable the
 * whole audit.
 */
Manifest parse_manifest(std::string_view path, std::string_view text,
                        std::vector<Finding> *errors);

struct AuditOptions
{
    /** Worker threads for the pass-1 file indexing (>= 1). */
    int jobs = 1;
};

/**
 * Run both passes over @p files and return all findings, sorted by
 * (file, line, rule, symbol) and deduplicated. Thread-ownership and
 * bad-annotation scan every file given; layering scans files under
 * src/; state-coverage reads exactly the files the manifest names.
 */
std::vector<Finding> run_audit(const Manifest &manifest,
                               const std::vector<SourceFile> &files,
                               const AuditOptions &options = {});

/** Machine-readable output: {"findings": [...], "count": N}. */
std::string findings_to_json(const std::vector<Finding> &findings);

/** SARIF 2.1.0, one run, level "error" results. */
std::string findings_to_sarif(const std::vector<Finding> &findings);

}  // namespace audit
}  // namespace ef

#endif  // EF_TOOLS_EF_AUDIT_AUDIT_H_
