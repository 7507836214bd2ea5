"""Research harnesses that observe simtutor runs from outside the package."""
