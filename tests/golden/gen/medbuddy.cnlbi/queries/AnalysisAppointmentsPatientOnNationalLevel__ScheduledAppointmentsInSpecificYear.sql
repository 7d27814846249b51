-- Slice: AnalysisAppointmentsPatientOnNationalLevel / ScheduledAppointmentsInSpecificYear
-- slices the data to visualise the appointments that were scheduled in a specific year
SELECT "f".*
FROM "AppointmentRequest" "f"
JOIN "Time" "j_scheduled_date" ON "f"."scheduled_date" = "j_scheduled_date"."id"
WHERE "j_scheduled_date"."year" = :year;
