"""Direct mode: constrained-random generation without coverage guidance
(paper Section IV-B.2).

The LFSR selects prime instructions from the instruction library with
category weights keeping roughly the paper's observed 1:5 ratio of
control-flow to non-control-flow instructions; the block builder performs
the context-aware sizing and operand assignment.
"""

from repro.fuzzer.blocks import BlockBuilder
from repro.isa.instructions import Category

# Uniform sampling over ~170 specs would give ~5% control flow; these
# weights restore the ~1:6 mix the paper measures in Fig. 4.
DEFAULT_CATEGORY_WEIGHTS = {
    Category.BRANCH: 3,
    Category.JUMP: 2,
    Category.ALU: 2,
    Category.ALU_IMM: 2,
    Category.LOAD: 2,
    Category.STORE: 2,
    # ebreak (the only generatable SYSTEM instruction) traps on every
    # execution; keeping it out of the default mix preserves the paper's
    # 0.96+ prevalence.  Bug-hunting configs re-enable it explicitly.
    Category.SYSTEM: 0,
}


class DirectGenerator:
    """Generates whole iterations (or single blocks) of random stimulus."""

    def __init__(self, library, context, category_weights=None):
        self.library = library
        self.context = context
        self.builder = BlockBuilder(context)
        self.category_weights = (
            dict(category_weights)
            if category_weights is not None
            else dict(DEFAULT_CATEGORY_WEIGHTS)
        )
        # Cached expanded weighted spec list: rebuilding (or even re-keying)
        # it per generated block dominates generation cost, so it is
        # revalidated with two cheap compares — the library's active-set
        # version and a snapshot of the weights dict (callers may mutate
        # ``category_weights`` in place between blocks).
        self._expanded = None
        self._expanded_version = None
        self._expanded_weights = None

    def _weighted_specs(self):
        version = self.library.version
        if (self._expanded is None
                or self._expanded_version != version
                or self._expanded_weights != self.category_weights):
            self._expanded = self.library.weighted_specs(self.category_weights)
            self._expanded_version = version
            self._expanded_weights = dict(self.category_weights)
        return self._expanded

    def generate_block(self, block_index, estimated_blocks, jump_window):
        """One random instruction block."""
        spec = self.context.lfsr.choice(self._weighted_specs())
        return self.builder.build(spec, block_index, estimated_blocks,
                                  jump_window)
