"""convoforge: conversational QA dataset synthesis and style evaluation."""
