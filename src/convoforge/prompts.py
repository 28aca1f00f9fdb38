"""Prompt presets and generation templates.

The two system prompts are fixed texts and must survive byte-for-byte:
exports and evaluation runs depend on exact reproduction. The QA and
rephrase templates are editable defaults, not tuned artifacts; override
them per run in the config file.
"""

# Verbose prompt for instructing an unmodified model to answer
# conversationally at inference time.
VERBOSE_BASE_PROMPT = (
    "You are a helpful assistant. You answer questions in a natural, "
    "conversational tone, like in a spoken conversation. You give short and "
    "concise answers. Your answers must be one to four sentences long. The "
    "Flesch Reading Ease Score is a metric to assess how difficult a text "
    "passage is to understand. Higher scores indicate text that is easier. "
    "Please formulate your answer such that it would receive a Flesch Reading "
    "Ease Score of above 60."
)

# Concise prompt used in fine-tuning records and when querying the
# fine-tuned models.
CONCISE_FINETUNE_PROMPT = (
    "You are a helpful assistant. You answer questions in a natural, "
    "conversational tone, like in a spoken conversation."
)

PRESETS = {
    "verbose-base": VERBOSE_BASE_PROMPT,
    "concise-finetune": CONCISE_FINETUNE_PROMPT,
}

# Step 1: draw a question-answer pair out of a corpus section. The
# section text is injected verbatim into {section_text}.
QA_GENERATION_TEMPLATE = """\
Read the following text section and generate an interesting question about \
its content, together with the corresponding answer. The answer must be \
grounded in the text section.

Text section:
{section_text}

Respond with a JSON object containing exactly two fields, "question" and \
"answer", and nothing else."""

# Step 2: rephrase an answer conversationally without changing what it
# says. Applied repeatedly when the result still reads too formally; from
# the second attempt on, {feedback} is SIMPLIFY_FEEDBACK filled in (empty on
# the first), so the model sees its previous answer and that answer's score.
SIMPLIFY_TEMPLATE = """\
Rephrase the following answer in a conversational tone, while keeping the \
semantic content of the answer the same. Use plain, everyday words and \
short sentences, as if you were speaking to a friend.{feedback}

Question: {question}

Answer: {answer}

Respond with the rephrased answer only."""

SIMPLIFY_FEEDBACK = (
    "\n\nThis is attempt {attempt}. The answer below is your previous attempt; "
    "it scored {score:.1f} on the Flesch Reading Ease scale, and the "
    "rephrased answer must score at least {threshold:g}."
)


def preset(name: str) -> str:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown prompt preset {name!r}; available: {known}") from None
