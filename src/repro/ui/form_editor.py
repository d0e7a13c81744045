"""Form Editor: developer-facing template customization.

The paper's Form Editor lets application developers refine generated
forms "in order to provide additional custom instructions".  Edits are
validated — a developer cannot accidentally drop an input field the
operators rely on.
"""

from __future__ import annotations

from repro.errors import UITemplateError
from repro.ui.manager import UITemplateManager
from repro.ui.templates import UITemplate


class FormEditor:
    """Edit templates held by a :class:`UITemplateManager`."""

    def __init__(self, manager: UITemplateManager) -> None:
        self.manager = manager

    def set_instructions(self, template_id: str, instructions: str) -> UITemplate:
        """Replace the free-text instructions of a template."""
        if not instructions.strip():
            raise UITemplateError("instructions cannot be empty")
        template = self.manager.get(template_id)
        edited = template.with_instructions(instructions)
        self.manager.replace(edited)
        return edited

    def append_instructions(self, template_id: str, note: str) -> UITemplate:
        """Add a custom note after the generated instructions."""
        template = self.manager.get(template_id)
        combined = f"{template.instructions} {note.strip()}"
        return self.set_instructions(template_id, combined)

    def set_html(self, template_id: str, html: str) -> UITemplate:
        """Replace the HTML body; every input field must survive."""
        template = self.manager.get(template_id)
        edited = template.with_html(html)
        self.manager.replace(edited)
        return edited
